"""Tests for the detection layer: LRT statistic, threshold calibration,
closed-form detection probability against Monte Carlo and KL covertness
against simulation oracles."""

import numpy as np
import pytest

from covertsim.channel import ChannelConfig, propagate, sample_taps
from covertsim.detection import (
    LrtWarden,
    analytic_pd,
    calibrate_threshold,
    gaussian_kl_empirical,
    kl_covertness,
    lrt_statistic,
    monte_carlo_roc,
    pd_at_target_pf,
)
from covertsim.numerics import DomainError, RngStream, energy, q_function, q_inverse


# ---------------------------------------------------------------------------
# test statistic and calibration
# ---------------------------------------------------------------------------

def test_lrt_statistic_hand_value():
    y = np.array([1.0 + 1.0j, 2.0])
    x = np.array([1.0, 1.0j])
    # 2 Re(y^H x) = 2 Re(conj(1+1j)*1 + conj(2)*1j) = 2 Re(1 - 1j + 2j) = 2
    assert lrt_statistic(y, x) == pytest.approx(2.0)


def test_lrt_statistic_shape_mismatch():
    with pytest.raises(DomainError):
        lrt_statistic(np.ones(3, dtype=complex), np.ones(4, dtype=complex))


def test_calibrated_threshold_formula():
    x = np.array([1.0, 1.0j, -1.0], dtype=complex)
    sigma2 = 2.0
    thr = calibrate_threshold(x, sigma2, 0.1)
    assert thr == pytest.approx(np.sqrt(2 * sigma2 * 3.0) * q_inverse(0.1))


def test_calibrated_threshold_empirical_pf():
    # under H0 the statistic is Gaussian; the calibrated threshold must
    # hit the requested false-alarm rate on fresh noise
    gen = RngStream(0).generator()
    x = np.array([1.0, -1.0j, 0.5, 2.0], dtype=complex)
    sigma2 = 1.5
    thr = calibrate_threshold(x, sigma2, 0.1)
    noise = np.sqrt(sigma2 / 2) * (gen.standard_normal((100_000, 4))
                                   + 1j * gen.standard_normal((100_000, 4)))
    t = 2 * np.real(noise @ np.conj(x))
    pf = np.mean(t > thr)
    assert pf == pytest.approx(0.1, abs=3 * np.sqrt(0.1 * 0.9 / 100_000))


@pytest.mark.parametrize("pf", [0.0, 1.0])
def test_calibrate_threshold_domain(pf):
    with pytest.raises(DomainError):
        calibrate_threshold(np.ones(2, dtype=complex), 1.0, pf)


def test_calibrate_threshold_rejects_degenerate():
    with pytest.raises(DomainError):
        calibrate_threshold(np.zeros(2, dtype=complex), 1.0, 0.1)
    with pytest.raises(DomainError):
        calibrate_threshold(np.ones(2, dtype=complex), 0.0, 0.1)


# ---------------------------------------------------------------------------
# closed-form detection probability
# ---------------------------------------------------------------------------

def test_analytic_pd_symmetric_point():
    # at sigma2 * ln(gamma) = ||x||^2 the argument is zero: P_D = 1/2
    x = np.array([1.0, 1.0], dtype=complex)
    sigma2 = 0.8
    gamma = np.exp(energy(x) / sigma2)
    assert analytic_pd(gamma, x, sigma2) == pytest.approx(0.5)


def test_analytic_pd_monte_carlo_oracle():
    # LRT decision logLR > ln(gamma) is T > sigma2 ln(gamma) + ||x||^2
    gen = RngStream(1).generator()
    x = np.array([0.7, -0.3j, 0.5 + 0.5j], dtype=complex)
    sigma2, gamma, trials = 1.2, 2.0, 100_000
    noise = np.sqrt(sigma2 / 2) * (gen.standard_normal((trials, 3))
                                   + 1j * gen.standard_normal((trials, 3)))
    t = 2 * np.real((x[None, :] + noise) @ np.conj(x))
    pd_mc = np.mean(t > sigma2 * np.log(gamma) + energy(x))
    pd = analytic_pd(gamma, x, sigma2)
    assert pd_mc == pytest.approx(pd, abs=3 * np.sqrt(pd * (1 - pd) / trials))


def test_pd_at_target_pf_matches_threshold_form():
    x = np.array([1.0, 2.0j], dtype=complex)
    sigma2, pf = 1.0, 0.1
    # detection rate of the pf-calibrated threshold, via H1 statistics
    thr = calibrate_threshold(x, sigma2, pf)
    expected = q_function((thr - 2 * energy(x)) / np.sqrt(2 * sigma2 * energy(x)))
    assert pd_at_target_pf(energy(x), sigma2, pf) == pytest.approx(expected)


def test_pd_at_target_pf_zero_energy_degrades_to_pf():
    assert pd_at_target_pf(0.0, 1.0, 0.1) == pytest.approx(0.1)


def test_pd_at_target_pf_vectorized():
    out = pd_at_target_pf(np.array([0.0, 1.0, 4.0]), 1.0, 0.1)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)  # more energy, more detectable
    assert out[0] == pytest.approx(0.1)


@pytest.mark.parametrize("x_energy,sigma2", [
    (-1.0, 1.0),
    (np.array([1.0, -1e-12]), 1.0),
    (1.0, 0.0),
    (1.0, -1.0),
    # one warden's column of a (K, 1) variance is zero
    (np.ones(3), np.array([[1.0], [0.0]])),
])
def test_pd_at_target_pf_refuses_negative_energy_or_variance(x_energy, sigma2):
    with pytest.raises(DomainError, match="x_energy must be >= 0 and sigma2 > 0"):
        pd_at_target_pf(x_energy, sigma2, 0.1)


def test_monte_carlo_roc_fixed_taps_matches_analytic():
    cfg = ChannelConfig(n_taps=2, noise_variance=1.0)
    s = np.array([1.0, -1.0, 1.0j, 0.5], dtype=complex)
    fixed = np.array([0.8, 0.3j])
    x = propagate(s, fixed)
    warden = LrtWarden(x, cfg.noise_variance,
                       calibrate_threshold(x, cfg.noise_variance, 0.1))
    report = monte_carlo_roc(warden, cfg, s, 50_000, RngStream(2), fixed_taps=fixed)
    expected = pd_at_target_pf(energy(x), cfg.noise_variance, 0.1)
    for measured, p in ((report.pf, 0.1), (report.pd, expected)):
        # three binomial standard errors of the measured rate
        se = np.sqrt(measured * (1 - measured) / report.trials)
        assert measured == pytest.approx(p, abs=3 * se + 1e-9)


def test_monte_carlo_roc_random_taps_runs():
    cfg = ChannelConfig()
    s = np.ones(8, dtype=complex)
    warden = LrtWarden(s, 1.0, calibrate_threshold(s, 1.0, 0.1))
    report = monte_carlo_roc(warden, cfg, s, 2000, RngStream(3))
    assert 0.0 <= report.pd <= 1.0
    assert report.trials == 2000


def test_monte_carlo_roc_rejects_no_trials():
    warden = LrtWarden(np.ones(2, dtype=complex), 1.0, 0.0)
    with pytest.raises(DomainError):
        monte_carlo_roc(warden, ChannelConfig(), np.ones(2, dtype=complex),
                        0, RngStream(0))


# ---------------------------------------------------------------------------
# KL covertness
# ---------------------------------------------------------------------------

def test_kl_covertness_formula():
    s = np.array([1.0, 1.0j], dtype=complex)
    assert kl_covertness(s, np.array([0.5, 0.3]), 2.0) == pytest.approx(0.8 * 2.0 / 2.0)


def test_kl_unit_tap_equals_exact_gaussian_kl():
    # one deterministic unit tap: KL(CN(x, s2 I) || CN(0, s2 I)) = ||x||^2 / s2
    s = np.array([0.5, -0.5j, 1.0], dtype=complex)
    assert kl_covertness(s, np.array([1.0]), 0.7) == pytest.approx(energy(s) / 0.7)


def test_empirical_kl_matches_exact():
    x = np.array([0.6, -0.4j, 0.8], dtype=complex)
    sigma2 = 1.3
    est = gaussian_kl_empirical(x, sigma2, 100_000, RngStream(4))
    assert est == pytest.approx(energy(x) / sigma2, rel=0.05)


def test_kl_rejects_bad_sigma2():
    with pytest.raises(DomainError):
        kl_covertness(np.ones(2, dtype=complex), np.ones(1), 0.0)

