"""Tests for adversarial training: power projection and its adjoint,
full-chain gradients through the channel, the Monte Carlo kernels
against a serial run, the alternating loop, the wasserstein variant and
the adaptive warden loop."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertsim import adversarial
from covertsim.adversarial import (
    AdamState,
    GeneratorSpec,
    TrainConfig,
    _CHUNK,
    _disc_update,
    adaptive_warden_loop,
    build_system,
    decode_ber,
    generate_signal,
    generator_loss,
    project_power,
    project_power_backward,
    sample_bob_taps,
    sample_latents,
    sample_messages,
    sample_warden_taps,
    snapshot_metrics,
    snr_db_to_bob_sigma2,
    train,
    warden_detection,
)
from covertsim.channel import propagate
from covertsim.detection import pd_at_target_pf
from covertsim.evaluation import NoiseInjectionTransmitter
from covertsim.neuralnet import DenseNet, adam_step, bce_loss, row_blocks
from covertsim.numerics import DomainError, RngStream, from_reim, sample_awgn, to_reim
from covertsim.scenarios import get_preset, make_scenario

TINY_SPEC = GeneratorSpec(message_bits=4, noise_dim=4, n=8, power=4.0,
                          hidden=(16, 16), dropout=0.0)
TINY_CFG = dict(iterations=15, batch=8, lr=1e-3, disc_warmup=5,
                snapshot_every=5, snapshot_trials=128)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_generator_spec_validation():
    with pytest.raises(DomainError):
        GeneratorSpec(message_bits=0)
    for power in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            GeneratorSpec(power=power)


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(iterations=0)
    with pytest.raises(DomainError):
        TrainConfig(loss_mode="hinge")
    with pytest.raises(DomainError):
        TrainConfig(loss_mode="wasserstein", clip=0.0)
    for bad in ({"lr": np.nan}, {"lr": np.inf}, {"mu": np.nan}, {"mu": np.inf},
                {"loss_mode": "wasserstein", "clip": np.nan},
                {"loss_mode": "wasserstein", "clip": np.inf}):
        with pytest.raises(DomainError):
            TrainConfig(**bad)


def test_snr_conversion():
    assert snr_db_to_bob_sigma2(10.0, 20.0) == pytest.approx(0.1)
    assert snr_db_to_bob_sigma2(10.0, 0.0) == pytest.approx(10.0)
    # a linear SNR, or Bob's noise variance, outside the positive finite floats
    for power, snr_db in ((10.0, 4000.0), (10.0, -4000.0), (10.0, np.nan),
                          (1e300, -100.0), (1e-300, 300.0)):
        with pytest.raises(DomainError):
            snr_db_to_bob_sigma2(power, snr_db)


# ---------------------------------------------------------------------------
# power projection
# ---------------------------------------------------------------------------

def test_project_power_clips_only_violators():
    s = np.array([[1.0, 0.0], [3.0, 4.0j]], dtype=complex)
    out, scale = project_power(s, 4.0)
    np.testing.assert_allclose(out[0], s[0])  # energy 1 <= 4 untouched
    assert scale[0] == 1.0
    assert np.sum(np.abs(out[1]) ** 2) == pytest.approx(4.0)
    # direction preserved
    np.testing.assert_allclose(out[1] / np.abs(out[1][0]), s[1] / np.abs(s[1][0]))


def test_project_power_backward_finite_differences():
    # the adjoint of the projection, checked as a real-linear map
    gen = np.random.default_rng(0)
    s_raw = gen.standard_normal((4, 6)) + 1j * gen.standard_normal((4, 6))
    s_raw[0] *= 0.01  # one comfortably feasible row
    power = 3.0
    downstream = gen.standard_normal((4, 6)) + 1j * gen.standard_normal((4, 6))

    def loss_of(s_flat):
        s = from_reim(s_flat)
        proj, _ = project_power(s, power)
        return float(np.sum(np.real(np.conj(downstream) * proj)))

    _, scale = project_power(s_raw, power)
    grad = project_power_backward(downstream, s_raw, scale)
    flat = to_reim(s_raw)
    gflat = to_reim(grad)
    eps = 1e-6
    for r in range(4):
        for j in gen.choice(12, size=6, replace=False):
            hi = flat.copy(); hi[r, j] += eps
            lo = flat.copy(); lo[r, j] -= eps
            fd = (loss_of(hi) - loss_of(lo)) / (2 * eps)
            assert gflat[r, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def _batch_around_ball(gen, batch, n, power):
    """Complex rows whose energies lie well inside or well outside the
    energy-P ball, at random, away from its kink at energy P."""
    s = gen.standard_normal((batch, n)) + 1j * gen.standard_normal((batch, n))
    target = power * np.where(gen.random(batch) < 0.5, gen.uniform(0.05, 0.8, batch),
                              gen.uniform(1.25, 20.0, batch))
    return s * np.sqrt(target / np.sum(np.abs(s) ** 2, axis=1))[:, None]


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 8), n=st.integers(1, 16),
       power=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
def test_project_power_is_feasible_and_keeps_feasible_rows(batch, n, power, seed):
    s = _batch_around_ball(np.random.default_rng(seed), batch, n, power)
    out, scale = project_power(s, power)
    assert np.all(np.sum(np.abs(out) ** 2, axis=1) <= power * (1 + 1e-12))
    feasible = np.sum(np.abs(s) ** 2, axis=1) <= power
    np.testing.assert_array_equal(out[feasible], s[feasible])
    assert np.all(scale[feasible] == 1.0) and np.all(scale[~feasible] < 1.0)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 8), n=st.integers(1, 16),
       power=st.floats(1e-2, 1e2), seed=st.integers(0, 2 ** 32 - 1))
def test_project_power_backward_is_the_adjoint(batch, n, power, seed):
    # <J v, w> = <v, J^T w> with J v a central difference of the projection
    gen = np.random.default_rng(seed)
    s = _batch_around_ball(gen, batch, n, power)
    v = gen.standard_normal((batch, n)) + 1j * gen.standard_normal((batch, n))
    w = gen.standard_normal((batch, n)) + 1j * gen.standard_normal((batch, n))
    eps = 1e-6 * np.sqrt(power)
    jv = (project_power(s + eps * v, power)[0] - project_power(s - eps * v, power)[0]) / (2 * eps)
    _, scale = project_power(s, power)
    lhs = np.real(np.sum(np.conj(jv) * w))
    rhs = np.real(np.sum(np.conj(v) * project_power_backward(w, s, scale)))
    scale_of_terms = np.sum(np.abs(jv) * np.abs(w)) + 1e-300
    assert abs(lhs - rhs) <= 1e-6 * scale_of_terms


def test_generated_signals_respect_power():
    scen = make_scenario(2)
    system = build_system(TINY_SPEC, scen, RngStream(0))
    gen = RngStream(1).generator()
    m = np.sign(gen.standard_normal((500, 4)) + 1e-12)
    z = gen.standard_normal((500, 4))
    s, _ = generate_signal(system, m, z)
    assert np.all(np.sum(np.abs(s) ** 2, axis=1) <= TINY_SPEC.power + 1e-9)


def _chunk_counts(rows):
    return [sl.stop - sl.start for sl in row_blocks(rows, _CHUNK)]


def _chunk_blocks(rows):
    """The row blocks of every chunk, as slices of range(rows)."""
    return [slice(ch.start + sl.start, ch.start + sl.stop)
            for ch in row_blocks(rows, _CHUNK) for sl in row_blocks(ch.stop - ch.start)]


def _serial_detection(system, gen, trials, calib, target_pf):
    """warden_detection on one thread: every chunk's draws in the kernel's
    order (latents, taps and noises per H1 chunk, then the H0 chunks), then
    the block loops, one warden at a time."""
    scen, spec = system.scenario, system.gen_spec
    h1 = [(*sample_latents(spec, gen, c), sample_warden_taps(scen, c, gen),
           sample_awgn(spec.n, scen.warden_sigma2, gen, count=c))
          for c in _chunk_counts(trials)]
    y0 = np.concatenate([sample_awgn(spec.n, scen.warden_sigma2, gen, count=c)
                         for c in _chunk_counts(calib)], axis=1)
    m, z = (np.concatenate([chunk[j] for chunk in h1]) for j in (0, 1))
    taps, noise1 = (np.concatenate([chunk[j] for chunk in h1], axis=1) for j in (2, 3))
    s = np.concatenate([generate_signal(system, m[sl], z[sl])[0] for sl in _chunk_blocks(trials)])
    detected = np.zeros((scen.k, trials), dtype=bool)
    out = []
    for i, disc in enumerate(system.discriminators):
        sigma2 = scen.warden_sigma2[i]
        out1, ex, out0 = np.empty(trials), np.empty(trials), np.empty(calib)
        for sl in _chunk_blocks(trials):
            x1 = propagate(s[sl], taps[i, sl])
            ex[sl] = np.sum(np.abs(x1) ** 2, axis=1)
            out1[sl] = disc.forward(to_reim(x1 + noise1[i, sl]))[0][:, 0]
        for sl in _chunk_blocks(calib):
            out0[sl] = disc.forward(to_reim(y0[i, sl]))[0][:, 0]
        thr = np.quantile(out0, target_pf)
        detected[i] = out1 < thr
        out.append((float(np.mean(detected[i])), float(np.mean(out0 < thr)),
                    float(np.mean(pd_at_target_pf(ex, sigma2, target_pf)))))
    energy = float(np.mean(np.sum(np.abs(s) ** 2, axis=1)))
    return out, float(np.mean(~np.any(detected, axis=0))), energy


def _serial_ber(draw, encode, decode, scenario, n, trials, sigma2, gen):
    """decode_ber on one thread: each chunk's inputs, Bob's taps and Bob's
    noise, every chunk drawn first, then the block loops."""
    chunks = [(draw(gen, c), sample_bob_taps(scenario, c, gen),
               sample_awgn(n, sigma2, gen, count=c)) for c in _chunk_counts(trials)]
    errors = bits = 0
    for drawn, taps, noise in chunks:
        m = drawn[0]
        for sl in row_blocks(len(m)):
            s = encode(*(a[sl] for a in drawn))
            m_hat = decode(propagate(s, taps[sl]) + noise[sl], taps[sl])
            errors += int(np.count_nonzero(np.sign(m_hat + 1e-12) != m[sl]))
        bits += m.size
    return errors / bits


def _noise_injection_draw(spec):
    def draw(gen, count):
        m = sample_messages(spec, gen, count)
        return m, sample_awgn(spec.n, 1.0, gen, count=count)
    return draw


@pytest.mark.parametrize("preset", ["urban", "6g-dense"])
@pytest.mark.parametrize("trials", [300, 1700, 2049, 4096, 5000])
def test_lane_kernels_equal_a_serial_run(preset, trials):
    # one chunk of one, three and four row blocks, two whole chunks, and two
    # chunks whose last absorbs the remainder; 4,500 calibration slots are two
    # chunks with a remainder; 6g-dense has five correlated wardens;
    # GeneratorSpec() has dropout, so an eval-mode mask draw would leave the
    # generators in different states
    assert [len(row_blocks(r, _CHUNK)) for r in (2049, 4096, 5000, 4500)] == [1, 2, 2, 2]
    scen = get_preset(preset)
    system = build_system(GeneratorSpec(), scen, RngStream(0))
    tx = NoiseInjectionTransmitter(0.5, system.gen_spec)
    sigma2 = snr_db_to_bob_sigma2(system.gen_spec.power, 5.0)
    gen_a, gen_b = RngStream(9, trials).generator(), RngStream(9, trials).generator()
    wardens, csr, energy = warden_detection(system, gen_a, trials, 4500, 0.1)
    ber = decode_ber(system, scen, trials, sigma2, gen_a)
    ber_tx = decode_ber(tx, scen, trials, sigma2, gen_a)
    ref, csr_ref, energy_ref = _serial_detection(system, gen_b, trials, 4500, 0.1)
    n = system.gen_spec.n
    ber_ref = _serial_ber(lambda g, c: sample_latents(system.gen_spec, g, c),
                          lambda m, z: generate_signal(system, m, z)[0], system.decode,
                          scen, n, trials, sigma2, gen_b)
    ber_tx_ref = _serial_ber(_noise_injection_draw(tx.gen_spec), tx.encode, tx.decode,
                             scen, n, trials, sigma2, gen_b)
    assert [(w.pd, w.pf, w.pd_lrt) for w in wardens] == ref
    assert (csr, energy, ber, ber_tx) == (csr_ref, energy_ref, ber_ref, ber_tx_ref)
    assert 0.0 < ber_tx < 0.5
    assert np.array_equal(gen_a.standard_normal(5), gen_b.standard_normal(5))


def test_generate_signal_shape_check():
    system = build_system(TINY_SPEC, make_scenario(1), RngStream(0))
    with pytest.raises(DomainError):
        generate_signal(system, np.ones((2, 3)), np.ones((2, 4)))


# ---------------------------------------------------------------------------
# channel sampling
# ---------------------------------------------------------------------------

def test_warden_taps_shape_and_power():
    scen = make_scenario(3)
    taps = sample_warden_taps(scen, 5000, RngStream(2).generator())
    assert taps.shape == (3, 5000, scen.n_taps)
    np.testing.assert_allclose(np.mean(np.abs(taps) ** 2, axis=(0, 1)), 1.0,
                               atol=0.05)


def test_correlated_wardens_share_fading():
    scen = get_preset("6g-dense")
    taps = sample_warden_taps(scen, 4000, RngStream(3).generator())
    a, b = taps[0].ravel(), taps[1].ravel()
    corr = np.abs(np.mean(a * np.conj(b))) / np.sqrt(
        np.mean(np.abs(a) ** 2) * np.mean(np.abs(b) ** 2))
    assert corr > 0.5  # warden_mix = 0.7 shared component
    indep = sample_warden_taps(make_scenario(2), 4000, RngStream(3).generator())
    a, b = indep[0].ravel(), indep[1].ravel()
    corr0 = np.abs(np.mean(a * np.conj(b))) / np.mean(np.abs(a) ** 2)
    assert corr0 < 0.1


# ---------------------------------------------------------------------------
# full-chain gradient check (small shapes; desk scale in acceptance)
# ---------------------------------------------------------------------------

def test_generator_loss_gradients_finite_differences():
    scen = make_scenario(2, [0.5, 1.5], n_taps=2)
    system = build_system(TINY_SPEC, scen, RngStream(5))
    gen = RngStream(6).generator()
    batch = 3
    m = np.sign(gen.standard_normal((batch, 4)) + 1e-12)
    z = gen.standard_normal((batch, 4))
    w_taps = sample_warden_taps(scen, batch, gen)
    w_noise = np.stack([
        np.sqrt(scen.warden_sigma2[i] / 2) * (gen.standard_normal((batch, 8))
                                              + 1j * gen.standard_normal((batch, 8)))
        for i in range(2)])
    b_taps = sample_bob_taps(scen, batch, gen)
    b_noise = 0.1 * (gen.standard_normal((batch, 8)) + 1j * gen.standard_normal((batch, 8)))

    def loss_value():
        return generator_loss(system, m, z, w_taps, w_noise, b_taps, b_noise,
                              mu=1.0, rng=np.random.default_rng(0))[0]

    _, _, _, gen_grads, dec_grads, _ = generator_loss(
        system, m, z, w_taps, w_noise, b_taps, b_noise, mu=1.0,
        rng=np.random.default_rng(0))
    eps = 1e-6
    for net, grads in ((system.generator, gen_grads), (system.decoder, dec_grads)):
        flat = net.get_flat()
        gflat = net.grads_flat(grads)
        for j in np.random.default_rng(7).choice(flat.size, size=25, replace=False):
            hi = flat.copy(); hi[j] += eps
            net.set_flat(hi)
            up = loss_value()
            lo = flat.copy(); lo[j] -= eps
            net.set_flat(lo)
            down = loss_value()
            net.set_flat(flat)
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(gflat[j]), 1e-7)
            assert abs(fd - gflat[j]) / denom < 1e-4


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_smoke_and_log_shapes():
    cfg = TrainConfig(**TINY_CFG)
    system, log = train(cfg, make_scenario(2), RngStream(0), gen_spec=TINY_SPEC)
    assert len(log.rows) == cfg.iterations
    assert np.all(np.isfinite(log.gen_loss))
    assert len(log.disc_loss[0]) == 2
    # snapshots at 0, 5, 10, 15
    assert [s["iteration"] for s in log.snapshots] == [0, 5, 10, 15]
    assert all(0.0 <= s["csr"] <= 1.0 for s in log.snapshots)
    assert log.rows[0]["iteration"] == 1 and "gen_loss" in log.rows[0]


def test_train_is_deterministic():
    cfg = TrainConfig(**TINY_CFG)
    sys_a, log_a = train(cfg, make_scenario(2), RngStream(3), gen_spec=TINY_SPEC)
    sys_b, log_b = train(cfg, make_scenario(2), RngStream(3), gen_spec=TINY_SPEC)
    np.testing.assert_array_equal(sys_a.generator.get_flat(), sys_b.generator.get_flat())
    np.testing.assert_array_equal(sys_a.decoder.get_flat(), sys_b.decoder.get_flat())
    assert log_a.gen_loss == log_b.gen_loss
    assert log_a.snapshots[-1]["ber"] == log_b.snapshots[-1]["ber"]


def test_train_seeds_differ():
    cfg = TrainConfig(**TINY_CFG)
    sys_a, _ = train(cfg, make_scenario(2), RngStream(0), gen_spec=TINY_SPEC)
    sys_b, _ = train(cfg, make_scenario(2), RngStream(1), gen_spec=TINY_SPEC)
    assert not np.allclose(sys_a.generator.get_flat(), sys_b.generator.get_flat())


@pytest.mark.parametrize("net,message", [
    ("disc_1", "discriminator loss of disc_1 at warm-up step 1"),
    ("generator", "signal of generator at warm-up step 1"),
    ("decoder", "decode MSE of decoder at iteration 1"),
])
def test_non_finite_net_is_named(net, message, monkeypatch):
    def poisoned_system(*args, **kwargs):
        system = build_system(*args, **kwargs)
        target = system.discriminators[1] if net == "disc_1" else getattr(system, net)
        target.weights[0][0, 0] = np.nan
        return system

    monkeypatch.setattr(adversarial, "build_system", poisoned_system)
    with pytest.raises(RuntimeError, match=message):
        train(TrainConfig(**TINY_CFG), make_scenario(3), RngStream(0), gen_spec=TINY_SPEC)


def test_non_finite_generator_loss_is_reported(monkeypatch):
    # a finite MSE passes its own check, so the loss check is the first to fire
    def nan_loss(*args, **kwargs):
        _, _, mse, *rest = generator_loss(*args, **kwargs)
        return np.nan, np.nan, mse, *rest

    monkeypatch.setattr(adversarial, "generator_loss", nan_loss)
    with pytest.raises(RuntimeError, match=r"non-finite generator loss at iteration 1: "
                                           r"covert=nan mse=\S+ disc=\[") as info:
        train(TrainConfig(**TINY_CFG), make_scenario(2), RngStream(0), gen_spec=TINY_SPEC)
    assert "mse=nan" not in str(info.value)


@pytest.mark.parametrize("loss_mode", ["standard", "wasserstein"])
def test_disc_update_returns_the_warden_objective(loss_mode):
    system = build_system(TINY_SPEC, make_scenario(2), RngStream(0), loss_mode=loss_mode)
    gen = RngStream(1).generator()
    y0, y1 = (gen.standard_normal((2, 2, 64, 8)) + 1j * gen.standard_normal((2, 2, 64, 8)))
    # per-row verdicts before the step changes the wardens
    c0, c1 = ([disc.forward(to_reim(y[i]))[0][:, 0] for i, disc in
               enumerate(system.discriminators)] for y in (y0, y1))
    adam = AdamState(system.wardens.params.shape, lr=1e-3)
    value = _disc_update(system.wardens, adam, y0, y1, loss_mode, 0.05, gen, "test")
    assert value.shape == (2,)
    for i in range(2):
        if loss_mode == "wasserstein":
            expected = np.mean(c0[i]) - np.mean(c1[i])
        else:
            # indistinguishable batches cannot beat the 2 log(1/2) bound by much
            assert 2 * np.log(1e-7) <= value[i] <= 0.0
            expected = (np.mean(np.log(np.clip(c0[i], 1e-7, 1 - 1e-7)))
                        + np.mean(np.log(1 - np.clip(c1[i], 1e-7, 1 - 1e-7))))
        assert value[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("loss_mode", ["standard", "wasserstein"])
def test_disc_update_equals_a_hand_taken_step(loss_mode):
    wardens = build_system(TINY_SPEC, make_scenario(2), RngStream(0),
                           loss_mode=loss_mode).wardens
    # a large output layer saturates the sigmoid, so some verdicts are clamped
    wardens.weights[-1][:] *= 40.0
    gen = RngStream(1).generator()
    y0, y1 = 2 * (gen.standard_normal((2, 2, 64, 8)) + 1j * gen.standard_normal((2, 2, 64, 8)))
    adam = AdamState(wardens.params.shape, lr=1e-3)
    _disc_update(wardens, adam, y0, y1, loss_mode, 0.05, RngStream(2).generator(), "test")
    hand = DenseNet(wardens.specs, params=wardens.params.copy())
    hand_adam = copy.deepcopy(adam)
    _disc_update(wardens, adam, y1, y0, loss_mode, 0.05, RngStream(3).generator(), "test")

    out, cache = hand.forward(np.concatenate([to_reim(y1), to_reim(y0)], axis=-2),
                              train=True, rng=RngStream(3).generator())
    if loss_mode == "wasserstein":
        gout = np.concatenate([np.full((2, 64, 1), -1.0 / 64), np.full((2, 64, 1), 1.0 / 64)],
                              axis=-2)
    else:
        clamped = (out <= 1e-7) | (out >= 1 - 1e-7)
        assert clamped.any() and not clamped.all()
        labels = np.zeros_like(out)
        labels[:, :64] = 1.0
        gout = bce_loss(out, labels)[1]
    adam_step(hand_adam, hand, hand.backward(cache, gout)[0])
    if loss_mode == "wasserstein":
        hand.clip_weights(0.05)
        assert np.any(np.abs(hand.params) == 0.05)
    for a, b in ((wardens.params, hand.params), (adam.m, hand_adam.m), (adam.v, hand_adam.v)):
        assert np.array_equal(a, b)


def test_snapshot_metrics_fields():
    system = build_system(TINY_SPEC, make_scenario(2), RngStream(0))
    snap = snapshot_metrics(system, RngStream(1), trials=128)
    for key in ("csr", "ber", "pd_learned", "pf_learned", "pd_lrt",
                "mean_signal_energy"):
        assert key in snap
    assert len(snap["pd_learned"]) == 2
    assert 0.0 <= snap["csr"] <= 1.0


# ---------------------------------------------------------------------------
# wasserstein variant
# ---------------------------------------------------------------------------

def test_wasserstein_train_clips_critics():
    cfg = TrainConfig(loss_mode="wasserstein", clip=0.05, **TINY_CFG)
    system, log = train(cfg, make_scenario(2), RngStream(0), gen_spec=TINY_SPEC)
    assert system.loss_mode == "wasserstein"
    for disc in system.discriminators:
        assert disc.specs[-1].activation == "linear"
        assert np.max(np.abs(disc.get_flat())) <= 0.05 + 1e-12
    assert np.all(np.isfinite(log.gen_loss))


# ---------------------------------------------------------------------------
# adaptive warden loop
# ---------------------------------------------------------------------------

def test_adaptive_loop_starts_uninformed_and_adapts():
    cfg = TrainConfig(**TINY_CFG)
    system, _ = train(cfg, make_scenario(2), RngStream(0), gen_spec=TINY_SPEC)
    metric = adaptive_warden_loop(system, RngStream(1), period=50, window=100,
                                  total=150, batch=4, retrain_steps=20)
    assert metric.shape == (150,)
    # fresh wardens open with a zeroed head: verdict exactly 1/2
    np.testing.assert_allclose(metric[:50], 0.5)
    assert not np.allclose(metric[50:], 0.5)


def test_adaptive_loop_deterministic():
    cfg = TrainConfig(**TINY_CFG)
    system, _ = train(cfg, make_scenario(1), RngStream(0), gen_spec=TINY_SPEC)
    a = adaptive_warden_loop(system, RngStream(2), period=40, total=80,
                             batch=4, retrain_steps=10)
    b = adaptive_warden_loop(system, RngStream(2), period=40, total=80,
                             batch=4, retrain_steps=10)
    np.testing.assert_array_equal(a, b)
