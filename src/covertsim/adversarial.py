"""Adversarial training: generator vs. K per-warden discriminators plus
Bob's decoder, trained alternately on the min-max objective with a hard
transmit-power projection.

Conventions: discriminator output 1 means "classified as noise" (H0), 0
means "transmission detected"; the generator therefore minimizes
sum_i lambda_i E[log(1 - D_i(y_i))] + mu * MSE(m, m_hat).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import doppler_rotate, propagate, propagate_adjoint, sample_taps
from .detection import pd_at_target_pf
from .neuralnet import (
    AdamState,
    DenseNet,
    LayerSpec,
    adam_step,
    bce_loss,
    mse_loss,
    row_blocks,
)
from .numerics import DomainError, RngStream, from_reim, sample_awgn, to_reim
from .scenarios import ScenarioPreset

_CLAMP = 1e-7


class ConfigError(ValueError):
    """Raised on inconsistent training configuration."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Transmitter shape: message and latent sizes, slot length, power budget."""

    message_bits: int = 8
    noise_dim: int = 16
    n: int = 32
    power: float = 10.0
    hidden: tuple[int, ...] = (64, 64, 64)
    dropout: float = 0.2

    def __post_init__(self):
        if self.message_bits < 1 or self.noise_dim < 1 or self.n < 1:
            raise DomainError("message_bits, noise_dim and n must be positive")
        if self.power <= 0:
            raise DomainError(f"power budget must be > 0, got {self.power}")
        if not (0.0 <= self.dropout < 1.0):
            raise DomainError(f"dropout must be in [0,1), got {self.dropout}")


@dataclass
class TrainConfig:
    iterations: int = 2000
    batch: int = 64
    lr: float = 1e-4
    mu: float = 1.0
    loss_mode: str = "standard"  # or "wasserstein"
    clip: float = 0.05
    disc_warmup: int = 100
    snapshot_every: int = 100
    snapshot_trials: int = 512
    train_snr_db: float = 20.0
    target_pf: float = 0.1

    def __post_init__(self):
        if self.iterations < 1 or self.batch < 1:
            raise ConfigError("iterations and batch must be >= 1")
        if self.loss_mode not in ("standard", "wasserstein"):
            raise ConfigError(f"unknown loss mode {self.loss_mode!r}")
        if self.loss_mode == "wasserstein" and self.clip <= 0:
            raise ConfigError("wasserstein mode needs a positive clip bound")
        if not (0.0 < self.target_pf < 1.0):
            raise ConfigError(f"target_pf must be in (0,1), got {self.target_pf}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.mu < 0:
            raise ConfigError(f"mu must be >= 0, got {self.mu}")
        if self.disc_warmup < 0:
            raise ConfigError(f"disc_warmup must be >= 0, got {self.disc_warmup}")
        if self.snapshot_every < 0:
            raise ConfigError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if self.snapshot_every and self.snapshot_trials < 1:
            raise ConfigError("snapshot_trials must be >= 1 while snapshots are on")


@dataclass
class TrainLog:
    """Per-iteration loss traces plus periodic metric snapshots."""

    iterations: list[int] = field(default_factory=list)
    gen_loss: list[float] = field(default_factory=list)
    covert_loss: list[float] = field(default_factory=list)
    decode_mse: list[float] = field(default_factory=list)
    disc_loss: list[list[float]] = field(default_factory=list)
    covert_metric: list[float] = field(default_factory=list)
    snapshots: list[dict] = field(default_factory=list)

    def rows(self):
        """Line-record view (one dict per iteration) for jsonl streaming."""
        for j, it in enumerate(self.iterations):
            yield {
                "iteration": it,
                "gen_loss": self.gen_loss[j],
                "covert_loss": self.covert_loss[j],
                "decode_mse": self.decode_mse[j],
                "disc_loss": self.disc_loss[j],
                "covert_metric": self.covert_metric[j],
            }


@dataclass
class System:
    """Trained (or in-training) nets plus the scenario they were built for.

    The K discriminators are one stacked net, ``wardens``; ``discriminators``
    lists views of its rows.
    """

    generator: DenseNet
    decoder: DenseNet
    wardens: DenseNet
    gen_spec: GeneratorSpec
    scenario: ScenarioPreset
    bob_sigma2: float
    loss_mode: str = "standard"

    @property
    def discriminators(self) -> list[DenseNet]:
        return self.wardens.rows()

    @property
    def lambdas(self) -> np.ndarray:
        """The wardens' equal weights in the covertness loss."""
        return np.full(self.scenario.k, 1.0 / self.scenario.k)


def snr_db_to_bob_sigma2(power: float, snr_db: float) -> float:
    """SNR at Bob is defined as P / sigma_B^2."""
    return power / (10.0 ** (snr_db / 10.0))


def decoder_input(y_b: np.ndarray, bob_taps: np.ndarray) -> np.ndarray:
    """Decoder features: matched-filtered received slot plus the CSI taps.

    Bob has perfect CSI, so the channel-matched filter (correlate with the
    conjugate taps) is applied before the learned decoder; it is linear in
    y_b and removes the arbitrary channel phase the MLP would otherwise
    have to learn to invert.
    """
    return np.concatenate([to_reim(propagate_adjoint(y_b, bob_taps)),
                           to_reim(bob_taps)], axis=1)


def decoder_input_backward(grad_feat: np.ndarray, bob_taps: np.ndarray) -> np.ndarray:
    """Push a gradient w.r.t. the matched-filter output back to y_b."""
    return propagate(grad_feat, bob_taps)


def build_system(gen_spec: GeneratorSpec, scenario: ScenarioPreset, rng: RngStream,
                 loss_mode: str = "standard",
                 disc_hidden: tuple[int, ...] = (64, 64, 64),
                 dec_hidden: tuple[int, ...] = (64, 64, 64),
                 train_snr_db: float = 20.0) -> System:
    """Construct generator, decoder and one discriminator per warden."""
    n2 = 2 * gen_spec.n
    gen_layers = []
    dims = [gen_spec.message_bits + gen_spec.noise_dim, *gen_spec.hidden]
    for a, b in zip(dims, dims[1:]):
        gen_layers.append(LayerSpec(a, b, "relu", gen_spec.dropout))
    gen_layers.append(LayerSpec(dims[-1], n2, "linear"))
    generator = DenseNet(gen_layers, rng.child(1))

    disc_out = "linear" if loss_mode == "wasserstein" else "sigmoid"
    ddims = [n2, *disc_hidden]
    disc_layers = [LayerSpec(a, b, "leaky-relu") for a, b in zip(ddims, ddims[1:])]
    disc_layers.append(LayerSpec(ddims[-1], 1, disc_out))
    wardens = DenseNet.stack([DenseNet(disc_layers, rng.child(10 + i))
                              for i in range(scenario.k)])

    # decoder sees y_B plus Bob's (perfect-CSI) tap gains as re/im pairs
    dec_layers = []
    cdims = [n2 + 2 * scenario.n_taps, *dec_hidden]
    for a, b in zip(cdims, cdims[1:]):
        dec_layers.append(LayerSpec(a, b, "relu"))
    dec_layers.append(LayerSpec(cdims[-1], gen_spec.message_bits, "tanh"))
    decoder = DenseNet(dec_layers, rng.child(2))

    return System(generator, decoder, wardens, gen_spec, scenario,
                  snr_db_to_bob_sigma2(gen_spec.power, train_snr_db), loss_mode)


# ---------------------------------------------------------------------------
# signal generation with power projection
# ---------------------------------------------------------------------------

def project_power(s: np.ndarray, power: float):
    """Scale each row onto the energy-P ball; feasible rows pass untouched."""
    e = np.sum(np.abs(s) ** 2, axis=-1)
    scale = np.where(e > power, np.sqrt(power / np.maximum(e, 1e-300)), 1.0)
    return s * scale[..., None], scale


def project_power_backward(grad: np.ndarray, s_raw: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Adjoint of the power projection at s_raw (real-linear in re/im pairs)."""
    clipped = scale < 1.0
    if not np.any(clipped):
        return grad
    norm = np.sqrt(np.sum(np.abs(s_raw) ** 2, axis=-1))
    u = s_raw / np.maximum(norm, 1e-300)[..., None]
    dot = np.real(np.sum(np.conj(u) * grad, axis=-1))
    radial = scale[..., None] * (grad - u * dot[..., None])
    return np.where(clipped[..., None], radial, grad)


def generate_signal(system: System, m: np.ndarray, z: np.ndarray,
                    train: bool = False, rng: np.random.Generator | None = None):
    """Map (message, latent) batches to power-feasible complex slot signals.

    Returns (s, aux); aux carries what the backward pass needs and is
    None in eval mode.
    """
    m = np.atleast_2d(m)
    z = np.atleast_2d(z)
    if m.shape[1] != system.gen_spec.message_bits or z.shape[1] != system.gen_spec.noise_dim:
        raise DomainError("message/latent width does not match the generator spec")
    out, cache = system.generator.forward(np.concatenate([m, z], axis=1),
                                          train=train, rng=rng)
    s_raw = from_reim(out)
    s, scale = project_power(s_raw, system.gen_spec.power)
    aux = (cache, s_raw, scale) if train else None
    return s, aux


def signal_gradient_to_generator(system: System, grad_s: np.ndarray, aux):
    """Push a gradient w.r.t. the emitted signal back to generator parameters."""
    cache, s_raw, scale = aux
    grad_raw = project_power_backward(grad_s, s_raw, scale)
    return system.generator.backward(cache, to_reim(grad_raw))[0]


# ---------------------------------------------------------------------------
# channel sampling for training batches
# ---------------------------------------------------------------------------

def sample_messages(spec: GeneratorSpec, gen: np.random.Generator, count: int) -> np.ndarray:
    """Draw (count, bits) equiprobable +-1 messages."""
    return np.sign(gen.standard_normal((count, spec.message_bits)) + 1e-12)


def sample_latents(spec: GeneratorSpec, gen: np.random.Generator, count: int):
    """Draw (count, bits) +-1 messages and (count, noise_dim) generator latents."""
    m = sample_messages(spec, gen, count)
    return m, gen.standard_normal((count, spec.noise_dim))


def sample_warden_taps(scenario: ScenarioPreset, batch: int, gen: np.random.Generator,
                       slots: np.ndarray | None = None, n: int = 0) -> np.ndarray:
    """Draw (K, batch, L) warden tap gains, optionally cross-warden correlated.

    With slot indices given, row j is Doppler-rotated to the start time of
    slot slots[j] (n symbols per slot); mixing precedes the rotation.
    """
    cfg = scenario.warden_config(0)
    if scenario.correlated_wardens:
        shared = np.sqrt(scenario.warden_mix) * sample_taps(cfg, gen, batch)
        own = np.sqrt(1.0 - scenario.warden_mix)
        taps = np.stack([shared + own * sample_taps(cfg, gen, batch)
                         for _ in range(scenario.k)])
    else:
        taps = np.stack([sample_taps(cfg, gen, batch) for _ in range(scenario.k)])
    if slots is not None:
        taps = doppler_rotate(taps, slots * n * scenario.symbol_duration, scenario.doppler_hz)
    return taps


def sample_bob_taps(scenario: ScenarioPreset, batch: int, gen: np.random.Generator,
                    slots: np.ndarray | None = None, n: int = 0) -> np.ndarray:
    """Draw (batch, L) Bob tap gains, Doppler-rotated per slot as for the wardens."""
    t = None if slots is None else slots * n * scenario.symbol_duration
    return sample_taps(scenario.bob_config(), gen, batch, t)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def generator_loss(system: System, m, z, warden_taps, warden_noise,
                   bob_taps, bob_noise, mu: float = 1.0,
                   rng: np.random.Generator | None = None):
    """Composite generator objective with full-chain gradients.

    All randomness (latents, taps, noises, dropout rng) is supplied by the
    caller so the gradient is checkable against finite differences.
    Returns (loss, covert_term, decode_mse, gen_grads, dec_grads, d1_means).
    """
    s, aux = generate_signal(system, m, z, train=True, rng=rng)
    batch = s.shape[0]
    # all K wardens in one pass: (K, B, N) received slots, (K, B, 1) verdicts
    y1 = propagate(s, warden_taps) + warden_noise
    d1, dcache = system.wardens.forward(to_reim(y1), train=True, rng=rng)
    p = d1[..., 0]
    d1_means = np.mean(p, axis=-1)
    lam = system.lambdas[:, None]
    if system.loss_mode == "wasserstein":
        covert_terms = system.lambdas * -d1_means
        gp = np.broadcast_to(-lam[..., None] / batch, d1.shape)
    else:
        pc = np.clip(p, _CLAMP, 1.0 - _CLAMP)
        covert_terms = system.lambdas * np.mean(np.log(1.0 - pc), axis=-1)
        gp = np.where((p > _CLAMP) & (p < 1.0 - _CLAMP),
                      -lam / (1.0 - pc) / batch, 0.0)[..., None]
    covert = sum(covert_terms.tolist())
    # only the input gradient: the wardens are not updated by this loss
    _, gin = system.wardens.backward(dcache, gp, param_grads=False)
    # the K adjoints are summed in warden order
    grad_s = propagate_adjoint(from_reim(gin), warden_taps).sum(axis=0)

    y_b = propagate(s, bob_taps) + bob_noise
    m_hat, dec_cache = system.decoder.forward(decoder_input(y_b, bob_taps),
                                              train=True, rng=rng)
    mse, gpred = mse_loss(m_hat, m)
    dec_grads, gin = system.decoder.backward(dec_cache, mu * gpred)
    n2 = 2 * system.gen_spec.n
    grad_y_b = decoder_input_backward(from_reim(gin[:, :n2]), bob_taps)
    grad_s += propagate_adjoint(grad_y_b, bob_taps)

    gen_grads = signal_gradient_to_generator(system, grad_s, aux)
    loss = covert + mu * mse
    return loss, covert, mse, gen_grads, dec_grads, d1_means.tolist()


# ---------------------------------------------------------------------------
# Monte Carlo detection and BER
# ---------------------------------------------------------------------------

@dataclass
class WardenMetrics:
    pd: float
    pf: float
    pd_lrt: float


def csr_from_detections(detected: np.ndarray) -> float:
    """CSR from a (K, trials) boolean detection matrix: the fraction of
    cases where no warden's detection indicator fires."""
    detected = np.atleast_2d(np.asarray(detected, dtype=bool))
    return float(np.mean(~np.any(detected, axis=0)))


def warden_detection(system: System, s: np.ndarray, gen: np.random.Generator,
                     calib: int, target_pf: float = 0.1):
    """Per-warden detection of the signal batch s; returns (list[WardenMetrics], csr).

    Each learned discriminator is thresholded at the target false-alarm
    rate on calib fresh H0 slots; pd_lrt is the genie-LRT bound on the
    same H1 cases. Taps, H1 noise and H0 noise are drawn whole from gen in
    that order, warden by warden; the channel, the energies and the forwards
    then run in row blocks, so no per-layer activation spans the batch. The
    wardens run one at a time: stacking the calib-row H0 sets would multiply
    the peak memory by K.
    """
    scen = system.scenario
    trials, n = s.shape
    taps = sample_warden_taps(scen, trials, gen)
    detected = np.zeros((scen.k, trials), dtype=bool)
    out = []
    for i, disc in enumerate(system.discriminators):
        sigma2 = scen.warden_sigma2[i]
        noise1 = sample_awgn(n, sigma2, gen, count=trials)
        y0 = sample_awgn(n, sigma2, gen, count=calib)
        out1, ex, out0 = np.empty(trials), np.empty(trials), np.empty(calib)
        for sl in row_blocks(trials):
            x1 = propagate(s[sl], taps[i, sl])
            ex[sl] = np.sum(np.abs(x1) ** 2, axis=1)
            out1[sl] = disc.forward(to_reim(x1 + noise1[sl]))[0][:, 0]
        for sl in row_blocks(calib):
            out0[sl] = disc.forward(to_reim(y0[sl]))[0][:, 0]
        thr = np.quantile(out0, target_pf)
        detected[i] = out1 < thr
        out.append(WardenMetrics(pd=float(np.mean(detected[i])),
                                 pf=float(np.mean(out0 < thr)),
                                 pd_lrt=float(np.mean(pd_at_target_pf(ex, sigma2, target_pf)))))
    return out, csr_from_detections(detected)


def decode_ber(system: System, s: np.ndarray, m: np.ndarray, sigma2: float,
               gen: np.random.Generator) -> float:
    """Bit error rate of Bob's decoder on s (carrying m) at noise variance sigma2.

    Taps and noise are drawn whole; decoding runs in row blocks.
    """
    trials, n = s.shape
    taps = sample_bob_taps(system.scenario, trials, gen)
    noise = sample_awgn(n, sigma2, gen, count=trials)
    errors = 0
    for sl in row_blocks(trials):
        y_b = propagate(s[sl], taps[sl]) + noise[sl]
        m_hat = system.decoder.forward(decoder_input(y_b, taps[sl]))[0]
        errors += int(np.count_nonzero(np.sign(m_hat + 1e-12) != m[sl]))
    return errors / m.size


def snapshot_metrics(system: System, rng: RngStream, trials: int = 512,
                     calib: int = 2000, target_pf: float = 0.1) -> dict:
    """Quick eval-mode metrics: learned-warden pd/CSR, genie pd, BER.

    Learned-warden decisions come from per-discriminator thresholds
    calibrated on fresh H0 samples at the target false-alarm rate; CSR is
    the fraction of H1 cases no warden flags.
    """
    gen = rng.generator()
    m, z = sample_latents(system.gen_spec, gen, trials)
    s, _ = generate_signal(system, m, z)
    wardens, csr = warden_detection(system, s, gen, calib, target_pf)
    pd_learned = [w.pd for w in wardens]
    pd_lrt = [w.pd_lrt for w in wardens]
    return {
        "csr": csr,
        "ber": decode_ber(system, s, m, system.bob_sigma2, gen),
        "pd_learned": pd_learned,
        "pf_learned": [w.pf for w in wardens],
        "pd_lrt": pd_lrt,
        "mean_pd_learned": float(np.mean(pd_learned)),
        "mean_pd_lrt": float(np.mean(pd_lrt)),
        "mean_signal_energy": float(np.mean(np.sum(np.abs(s) ** 2, axis=1))),
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _require_finite(value: np.ndarray, names: list[str], what: str, where: str) -> None:
    """Raise RuntimeError naming where and the first net (one row of value
    per name) with a non-finite entry."""
    finite = np.isfinite(value)
    if not finite.all():
        bad = names[int(np.argmin(finite.reshape(len(names), -1).all(axis=1)))]
        raise RuntimeError(f"non-finite {what} of {bad} at {where}")


def _disc_update(disc: DenseNet, adam: AdamState, y0: np.ndarray, y1: np.ndarray,
                 loss_mode: str, clip: float, rng: np.random.Generator,
                 where: str) -> np.ndarray:
    """One ascent step of K stacked wardens on (K, B, N) H0/H1 batches y0/y1.

    Returns the K objective values before the step: E[log D(y0)] +
    E[log(1 - D(y1))] under the loss clamp, or mean c(y0) - mean c(y1).
    """
    x = np.concatenate([to_reim(y0), to_reim(y1)], axis=-2)
    out, cache = disc.forward(x, train=True, rng=rng)
    b0 = y0.shape[-2]
    if loss_mode == "wasserstein":
        # maximize mean c(noise) - mean c(signal)
        gout = np.zeros_like(out)
        gout[..., :b0, :] = -1.0 / b0
        gout[..., b0:, :] = 1.0 / y1.shape[-2]
        value = np.mean(out[..., :b0, 0], axis=-1) - np.mean(out[..., b0:, 0], axis=-1)
    else:
        labels = np.zeros_like(out)
        labels[..., :b0, :] = 1.0
        _, gout = bce_loss(out, labels)
        p0 = np.clip(out[..., :b0, 0], _CLAMP, 1 - _CLAMP)
        p1 = np.clip(out[..., b0:, 0], _CLAMP, 1 - _CLAMP)
        value = np.mean(np.log(p0), axis=-1) + np.mean(np.log(1 - p1), axis=-1)
    grads, _ = disc.backward(cache, gout)
    names = [f"disc_{i}" for i in range(len(disc.params))]
    _require_finite(value, names, "discriminator loss", where)
    _require_finite(grads, names, "gradient", where)
    adam_step(adam, disc, grads)
    if loss_mode == "wasserstein":
        disc.clip_weights(clip)
    return value


def train(cfg: TrainConfig, scenario: ScenarioPreset, rng: RngStream,
          gen_spec: GeneratorSpec | None = None,
          system: System | None = None) -> tuple[System, TrainLog]:
    """Run the alternating adversarial training loop.

    Per iteration: sample latents, per-warden channels and noises, take
    one ascent step per discriminator on fresh H0/H1 batches, then one
    descent step on the generator's composite loss (decoder updated on
    the same pass). Fully deterministic given (cfg, scenario, rng).
    """
    if gen_spec is None:
        gen_spec = GeneratorSpec()
    if system is None:
        system = build_system(gen_spec, scenario, rng.child(0),
                              loss_mode=cfg.loss_mode,
                              train_snr_db=cfg.train_snr_db)
    elif system.loss_mode != cfg.loss_mode:
        raise ConfigError("system loss mode does not match the training config")
    gen = rng.child(100).generator()
    log = TrainLog()

    adam_g = AdamState(system.generator.param_count(), lr=cfg.lr)
    adam_dec = AdamState(system.decoder.param_count(), lr=cfg.lr)
    adam_d = AdamState(system.wardens.params.shape, lr=cfg.lr)

    spec = system.gen_spec
    slot = 0

    def sample_round(batch):
        nonlocal slot
        m, z = sample_latents(spec, gen, batch)
        slots = np.arange(slot, slot + batch, dtype=float)
        slot += batch
        w_taps = sample_warden_taps(scenario, batch, gen, slots, spec.n)
        w_noise = np.stack([sample_awgn(spec.n, v, gen, count=batch)
                            for v in scenario.warden_sigma2])
        w_noise0 = np.stack([sample_awgn(spec.n, v, gen, count=batch)
                             for v in scenario.warden_sigma2])
        b_taps = sample_bob_taps(scenario, batch, gen, slots, spec.n)
        b_noise = sample_awgn(spec.n, system.bob_sigma2, gen, count=batch)
        return m, z, w_taps, w_noise, w_noise0, b_taps, b_noise

    # discriminator warm-up so the first CSR snapshot reflects trained wardens
    for step in range(1, cfg.disc_warmup + 1):
        m, z, w_taps, w_noise, w_noise0, _, _ = sample_round(cfg.batch)
        s, _ = generate_signal(system, m, z)
        _require_finite(s, ["generator"], "signal", f"warm-up step {step}")
        y1 = propagate(s, w_taps) + w_noise
        _disc_update(system.wardens, adam_d, w_noise0, y1, cfg.loss_mode, cfg.clip, gen,
                     f"warm-up step {step}")

    snap_rng = rng.child(200)
    if cfg.snapshot_every:
        snap = snapshot_metrics(system, snap_rng.child(0), trials=cfg.snapshot_trials,
                                target_pf=cfg.target_pf)
        snap["iteration"] = 0
        log.snapshots.append(snap)

    for it in range(1, cfg.iterations + 1):
        m, z, w_taps, w_noise, w_noise0, b_taps, b_noise = sample_round(cfg.batch)

        s, _ = generate_signal(system, m, z)
        _require_finite(s, ["generator"], "signal", f"iteration {it}")
        y1 = propagate(s, w_taps) + w_noise
        d_losses = _disc_update(system.wardens, adam_d, w_noise0, y1, cfg.loss_mode,
                                cfg.clip, gen, f"iteration {it}").tolist()

        loss, covert, mse, g_grads, dec_grads, d1_means = generator_loss(
            system, m, z, w_taps, w_noise, b_taps, b_noise, mu=cfg.mu, rng=gen)
        _require_finite(mse, ["decoder"], "decode MSE", f"iteration {it}")
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite generator loss at iteration {it}: "
                f"covert={covert} mse={mse} disc={d_losses}")
        _require_finite(g_grads, ["generator"], "gradient", f"iteration {it}")
        _require_finite(dec_grads, ["decoder"], "gradient", f"iteration {it}")
        adam_step(adam_g, system.generator, g_grads)
        adam_step(adam_dec, system.decoder, dec_grads)

        log.iterations.append(it)
        log.gen_loss.append(loss)
        log.covert_loss.append(covert)
        log.decode_mse.append(mse)
        log.disc_loss.append(d_losses)
        log.covert_metric.append(float(np.mean(d1_means)))

        if cfg.snapshot_every and it % cfg.snapshot_every == 0:
            snap = snapshot_metrics(system, snap_rng.child(it),
                                    trials=cfg.snapshot_trials,
                                    target_pf=cfg.target_pf)
            snap["iteration"] = it
            log.snapshots.append(snap)

    return system, log


def adaptive_warden_loop(system: System, rng: RngStream, period: int = 1000,
                         window: int = 500, total: int = 5000,
                         batch: int = 8, retrain_steps: int = 100) -> np.ndarray:
    """Freeze the generator against freshly deployed wardens that
    periodically retrain on what they recently observed; returns the
    per-iteration covertness metric (mean warden output on H1 samples).

    The adaptive wardens start uninformed rather than inheriting the
    training-time discriminators: a deployed adversary never saw the
    transmitter being built. Their final layer starts at zero so the
    initial verdict is exactly 1/2 everywhere, and the metric degrades
    from there as they learn. Retraining augments the stored observations
    with random global phase rotations: both hypotheses are circularly
    symmetric (tap phases are uniform, noise is circular), so the
    rotation is distribution preserving and keeps the small replay
    buffer from being memorized.
    """
    gen = rng.generator()
    spec = system.gen_spec
    scen = system.scenario
    wardens = DenseNet.stack([DenseNet(system.wardens.specs, gen) for _ in range(scen.k)])
    wardens.weights[-1][:] = 0.0
    adam = AdamState(wardens.params.shape, lr=1e-3)
    seen: list[np.ndarray] = []  # (K, batch, N) observations, oldest first
    metric = np.zeros(total)
    for it in range(total):
        m, z = sample_latents(spec, gen, batch)
        s, _ = generate_signal(system, m, z)
        taps = sample_warden_taps(scen, batch, gen)
        noise = np.stack([sample_awgn(spec.n, v, gen, count=batch)
                          for v in scen.warden_sigma2])
        y1 = propagate(s, taps) + noise
        seen.append(y1)
        metric[it] = np.mean(np.mean(wardens.forward(to_reim(y1))[0][..., 0], axis=-1))
        if (it + 1) % period == 0:
            rows = np.concatenate(seen, axis=1)[:, -window:]
            seen = [rows]
            # every warden's batches are drawn before any step, warden by warden
            draws = []
            for i, sigma2 in enumerate(scen.warden_sigma2):
                for _ in range(retrain_steps):
                    pick = gen.integers(0, rows.shape[1], size=min(64, rows.shape[1]))
                    y1 = rows[i, pick] * np.exp(2j * np.pi * gen.random((pick.size, 1)))
                    draws.append((sample_awgn(spec.n, sigma2, gen, count=pick.size), y1))
            for j in range(retrain_steps):
                y0, y1 = (np.stack(batches) for batches in zip(*draws[j::retrain_steps]))
                _disc_update(wardens, adam, y0, y1, system.loss_mode, 0.05, gen,
                             f"adaptive retraining after iteration {it + 1}")
    return metric
