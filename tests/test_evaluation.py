"""Tests for the evaluation layer: CSR accounting, detection and BER
measurement, the noise-injection and single-discriminator baselines and
the experiment sweeps."""

import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from covertsim import evaluation
from covertsim.adversarial import (
    GeneratorSpec,
    TrainConfig,
    build_system,
    csr_from_detections,
    sample_bob_taps,
    sample_messages,
    snr_db_to_bob_sigma2,
    train,
)
from covertsim.evaluation import (
    NoiseInjectionTransmitter,
    SWEEP_NAMES,
    evaluate_system,
    lrt_detection_for_signals,
    match_noise_injection_alpha,
    measure_ber,
    measure_detection,
    noise_injection_ber,
    run_sweeps,
    single_discriminator_baseline,
)
from covertsim.channel import propagate
from covertsim.neuralnet import row_blocks
from covertsim.numerics import DomainError, RngStream, sample_awgn
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
    per_warden, csr, mean_energy = measure_detection(system, 400, RngStream(1))
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


def _traced_peak(fn) -> int:
    """Peak bytes traced while fn runs; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", ["detection", "ber"])
def test_evaluation_memory_does_not_grow_with_the_draws(kernel):
    # whole-array draws grew the peak by about 2.0 kB (detection) and 1.4 kB
    # (BER) per added trial on this system. Detection may grow by its
    # per-trial outputs: per warden the H1 verdicts, the received energies,
    # the H0 verdicts (calibration is max(trials, 10,000) slots) and a
    # detection flag, the signal energies, and one warden's q_function list
    # at a time; BER by nothing
    spec = GeneratorSpec(message_bits=4, noise_dim=4, n=32, power=4.0, hidden=(16, 16))
    scen = get_preset("urban")
    system = build_system(spec, scen, RngStream(0))
    if kernel == "detection":
        run, bytes_per_trial = (lambda t: measure_detection(system, t, RngStream(1)),
                                40 * scen.k + 100)
    else:
        run, bytes_per_trial = lambda t: measure_ber(system, [20.0], t, RngStream(2)), 32
    small, large = (_traced_peak(lambda: run(t)) for t in (4096, 40_960))
    assert large - small < bytes_per_trial * (40_960 - 4096)


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


def _per_bit_correlation_decode(tx, y, taps):
    """Reference matched filter: correlate y with each bit's chip pattern
    pushed through the channel, one propagate pass per bit."""
    batch, n = y.shape
    basis = tx.chips(np.eye(tx.gen_spec.message_bits))
    out = np.empty((batch, tx.gen_spec.message_bits))
    for j in range(tx.gen_spec.message_bits):
        ref = propagate(np.broadcast_to(basis[j].astype(complex), (batch, n)), taps)
        out[:, j] = np.real(np.sum(np.conj(ref) * y, axis=1))
    return np.sign(out + 1e-12)


@pytest.mark.parametrize("spec", [TINY_SPEC, GeneratorSpec()])
def test_noise_injection_decode_matches_per_bit_correlation(spec):
    tx = NoiseInjectionTransmitter(0.5, spec)
    gen = RngStream(9).generator()
    shape = (2000, spec.n)
    y = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    taps = gen.standard_normal((2000, 4)) + 1j * gen.standard_normal((2000, 4))
    np.testing.assert_array_equal(tx.decode(y, taps), _per_bit_correlation_decode(tx, y, taps))


def test_noise_injection_ber_improves_with_snr():
    tx = NoiseInjectionTransmitter(1.0, TINY_SPEC)
    scen = make_scenario(1)
    low = noise_injection_ber(tx, scen, 0.0, 3000, RngStream(1))
    high = noise_injection_ber(tx, scen, 25.0, 3000, RngStream(1))
    assert high < low
    assert high < 0.1  # full-power BPSK with matched-filter CSI decode


def _whole_batch_noise_injection_ber(tx, scenario, snr_db, trials, rng):
    """The baseline's BER with the channel, the noise and the decoder each
    run on the whole batch, drawing in the kernel's order."""
    gen = rng.generator()
    m = sample_messages(tx.gen_spec, gen, trials)
    s = tx.generate(m, gen)
    taps = sample_bob_taps(scenario, trials, gen)
    sigma2 = snr_db_to_bob_sigma2(tx.gen_spec.power, snr_db)
    y = propagate(s, taps) + sample_awgn(tx.gen_spec.n, sigma2, gen, count=trials)
    return float(np.mean(tx.decode(y, taps) != m))


@pytest.mark.parametrize("preset", ["urban", "6g-dense"])
def test_noise_injection_ber_over_row_blocks_matches_the_whole_batch(preset):
    # 2,500 trials make four row blocks, the last of 964 rows
    assert len(row_blocks(2500)) == 4
    tx, scen = NoiseInjectionTransmitter(0.5, GeneratorSpec()), get_preset(preset)
    ber = noise_injection_ber(tx, scen, 5.0, 2500, RngStream(11))
    assert 0.0 < ber < 0.5
    assert ber == _whole_batch_noise_injection_ber(tx, scen, 5.0, 2500, RngStream(11))


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
