"""Tests for the deployment presets."""

import pytest

from covertsim.numerics import DomainError
from covertsim.scenarios import PRESETS, get_preset, make_scenario


def test_preset_registry():
    assert set(PRESETS) == {"urban", "military", "6g-dense"}


def test_urban_heterogeneous_noise():
    scen = get_preset("urban")
    assert scen.k == 3
    assert len(set(scen.warden_sigma2)) == 3  # all distinct


def test_military_has_one_advanced_warden():
    scen = get_preset("military")
    assert scen.k == 4
    assert min(scen.warden_sigma2) == 0.05
    assert scen.warden_sigma2.count(0.05) == 1


def test_6g_dense_is_correlated():
    scen = get_preset("6g-dense")
    assert scen.k == 5
    assert scen.correlated_wardens
    assert len(set(scen.warden_sigma2)) == 1


def test_get_preset_unknown():
    with pytest.raises(DomainError):
        get_preset("rural")


def test_warden_and_bob_configs():
    scen = get_preset("urban")
    assert scen.warden_config(1).noise_variance == scen.warden_sigma2[1]
    assert scen.warden_config(0).n_taps == 4
    assert scen.bob_config().n_taps == scen.n_taps


def test_averaged_collapses_to_mean_warden():
    scen = get_preset("urban")
    avg = scen.averaged()
    assert avg.k == 1
    assert avg.warden_sigma2[0] == pytest.approx(sum(scen.warden_sigma2) / 3)
    assert not avg.correlated_wardens


def test_make_scenario_defaults_and_validation():
    scen = make_scenario(4)
    assert scen.warden_sigma2 == (1.0,) * 4
    with pytest.raises(DomainError):
        make_scenario(3, [1.0, 2.0])
    with pytest.raises(DomainError):
        make_scenario(1, [0.0])
