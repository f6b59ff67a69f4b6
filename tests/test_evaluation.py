"""Tests for the evaluation layer: CSR accounting, detection and BER
measurement, the noise-injection and single-discriminator baselines and
the experiment sweeps."""

import numpy as np
import pytest

from dataclasses import replace

from covertsim import evaluation
from covertsim.adversarial import GeneratorSpec, TrainConfig, build_system, train
from covertsim.evaluation import (
    NoiseInjectionTransmitter,
    SWEEP_NAMES,
    csr_from_detections,
    evaluate_system,
    lrt_detection_for_signals,
    match_noise_injection_alpha,
    measure_ber,
    measure_detection,
    noise_injection_ber,
    run_sweeps,
    single_discriminator_baseline,
)
from covertsim.numerics import DomainError, RngStream
from covertsim.scenarios import get_preset, make_scenario

TINY_SPEC = GeneratorSpec(message_bits=4, noise_dim=4, n=8, power=4.0,
                          hidden=(16, 16), dropout=0.0)
TINY_CFG = dict(iterations=10, batch=8, lr=1e-3, disc_warmup=5,
                snapshot_every=5, snapshot_trials=128)


# ---------------------------------------------------------------------------
# CSR accounting
# ---------------------------------------------------------------------------

def test_csr_hand_matrix():
    detected = np.array([[True, False, False, False],
                         [False, True, False, False]])
    # cases 0 and 1 are caught by some warden; 2 and 3 escape all
    assert csr_from_detections(detected) == pytest.approx(0.5)


def test_csr_single_warden_vector():
    assert csr_from_detections(np.array([False, False, True, False])) == \
        pytest.approx(0.75)


def test_csr_all_detected():
    assert csr_from_detections(np.ones((3, 10), dtype=bool)) == 0.0


# ---------------------------------------------------------------------------
# detection / BER measurement
# ---------------------------------------------------------------------------

def test_measure_detection_shapes_and_bounds():
    scen = make_scenario(2)
    system = build_system(TINY_SPEC, scen, RngStream(0))
    per_warden, csr, mean_energy = measure_detection(system, 400, RngStream(1),
                                                     calib=2000)
    assert len(per_warden) == 2
    for w in per_warden:
        assert 0.0 <= w.pd <= 1.0
        # quantile calibration puts the false-alarm rate near target
        assert w.pf == pytest.approx(0.1, abs=0.02)
        assert 0.0 <= w.pd_lrt <= 1.0
    assert 0.0 <= csr <= 1.0
    assert 0.0 <= mean_energy <= TINY_SPEC.power + 1e-9


def test_measure_detection_minimum_trials():
    system = build_system(TINY_SPEC, make_scenario(1), RngStream(0))
    with pytest.raises(DomainError):
        measure_detection(system, 50, RngStream(1))


def test_measure_ber_improves_with_snr():
    cfg = TrainConfig(**TINY_CFG)
    system, _ = train(cfg, make_scenario(1), RngStream(0), gen_spec=TINY_SPEC)
    rows = measure_ber(system, [0.0, 30.0], 2000, RngStream(1))
    assert [r[0] for r in rows] == [0.0, 30.0]
    assert all(0.0 <= r[1] <= 1.0 for r in rows)
    assert all(r[2] >= 0.0 for r in rows)


def test_evaluate_system_report():
    scen = make_scenario(2)
    system = build_system(TINY_SPEC, scen, RngStream(0))
    report = evaluate_system(system, 400, RngStream(3))
    assert report.scenario == scen.name
    assert len(report.per_warden) == 2
    assert report.trials == 400
    assert report.mean_pd == pytest.approx(
        np.mean([w.pd for w in report.per_warden]))
    assert report.ber_stderr > 0.0


def test_evaluate_system_deterministic():
    system = build_system(TINY_SPEC, make_scenario(1), RngStream(0))
    a = evaluate_system(system, 400, RngStream(5))
    b = evaluate_system(system, 400, RngStream(5))
    assert a.ber == b.ber and a.csr == b.csr
    assert a.per_warden[0].pd == b.per_warden[0].pd


# ---------------------------------------------------------------------------
# noise-injection baseline
# ---------------------------------------------------------------------------

def test_noise_injection_power_budget():
    tx = NoiseInjectionTransmitter(0.5, TINY_SPEC)
    gen = RngStream(0).generator()
    m = np.sign(gen.standard_normal((1000, 4)) + 1e-12)
    s = tx.generate(m, gen)
    e = np.sum(np.abs(s) ** 2, axis=1)
    assert np.all(e <= TINY_SPEC.power + 1e-9)
    # the mask spends the remaining budget, so energy sits near P (the
    # signal/mask cross term scatters it a little below before clipping)
    assert np.mean(e) > 0.8 * TINY_SPEC.power


def test_noise_injection_alpha_validation():
    with pytest.raises(DomainError):
        NoiseInjectionTransmitter(0.0, TINY_SPEC)
    with pytest.raises(DomainError):
        NoiseInjectionTransmitter(1.5, TINY_SPEC)
    with pytest.raises(DomainError):
        NoiseInjectionTransmitter(0.5, GeneratorSpec(message_bits=3, n=8))


def test_noise_injection_ber_improves_with_snr():
    tx = NoiseInjectionTransmitter(1.0, TINY_SPEC)
    scen = make_scenario(1)
    low = noise_injection_ber(tx, scen, 0.0, 3000, RngStream(1))
    high = noise_injection_ber(tx, scen, 25.0, 3000, RngStream(1))
    assert high < low
    assert high < 0.1  # full-power BPSK with matched-filter CSI decode


def test_match_noise_injection_prefers_feasible():
    scen = make_scenario(1)
    tx, ber = match_noise_injection_alpha(0.2, TINY_SPEC, scen, 15.0, 1500,
                                          RngStream(2))
    assert 0.05 <= tx.alpha <= 1.0
    assert ber <= 0.2 + 0.05  # feasible if the grid allows, near-target otherwise


def test_lrt_detection_scales_with_signal_strength():
    scen = make_scenario(1)
    weak = 0.1 * np.ones((200, 8), dtype=complex)
    strong = 2.0 * np.ones((200, 8), dtype=complex)
    pd_weak = lrt_detection_for_signals(weak, scen, RngStream(3))[0]
    pd_strong = lrt_detection_for_signals(strong, scen, RngStream(3))[0]
    assert pd_strong > pd_weak


# ---------------------------------------------------------------------------
# single-discriminator baseline
# ---------------------------------------------------------------------------

def test_single_disc_baseline_covers_all_wardens():
    cfg = TrainConfig(**TINY_CFG)
    scen = make_scenario(3, [0.5, 1.0, 2.0])
    system, _ = single_discriminator_baseline(cfg, scen, RngStream(0),
                                              gen_spec=TINY_SPEC)
    assert system.scenario.k == 3
    assert len(system.discriminators) == 3
    # the same trained net serves every warden
    discs = system.discriminators
    np.testing.assert_array_equal(discs[0].get_flat(), discs[1].get_flat())
    np.testing.assert_array_equal(discs[0].get_flat(), discs[2].get_flat())
    report = evaluate_system(system, 400, RngStream(1))
    assert len(report.per_warden) == 3


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_run_sweeps_rejects_unknown_name():
    with pytest.raises(DomainError):
        run_sweeps("no-such-sweep", TrainConfig(**TINY_CFG), RngStream(0))


def test_sweep_names_registry():
    assert "ber-vs-snr" in SWEEP_NAMES and "adaptive" in SWEEP_NAMES


def test_csr_vs_epochs_sweep_points():
    cfg = TrainConfig(**TINY_CFG)
    points = run_sweeps("csr-vs-epochs", cfg, RngStream(0), gen_spec=TINY_SPEC,
                        trials=200)
    assert [p.x for p in points] == [0, 5, 10]
    assert all(p.metric == "csr" for p in points)
    assert all(0.0 <= p.value <= 1.0 for p in points)


@pytest.mark.parametrize("name", SWEEP_NAMES)
def test_sweeps_train_with_the_spec_and_detect_at_the_target_pf(name, monkeypatch):
    specs, pfs = [], []

    def recording(fn, record):
        def wrapper(*args, **kwargs):
            record(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(evaluation, "train", recording(
        train, lambda args, kwargs: specs.append(kwargs["gen_spec"])))
    for fn in ("warden_detection", "pd_at_target_pf"):
        monkeypatch.setattr(evaluation, fn, recording(
            getattr(evaluation, fn), lambda args, kwargs: pfs.append(args[-1])))
    # the adaptive wardens' 5,000 iterations add nothing to check here
    monkeypatch.setattr(evaluation, "adaptive_warden_loop", lambda system, rng: [0.5])
    cfg = TrainConfig(**TINY_CFG, target_pf=0.05)
    points = run_sweeps(name, cfg, RngStream(0), gen_spec=TINY_SPEC, trials=200)
    assert points
    # ber-vs-layers varies the hidden stack and keeps the rest of the spec
    assert specs and all(replace(s, hidden=TINY_SPEC.hidden) == TINY_SPEC for s in specs)
    assert set(pfs) <= {0.05}
    if name in ("pd-vs-k", "pd-distribution"):
        assert pfs
