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

from .channel import propagate, propagate_adjoint, sample_taps
from .detection import pd_at_target_pf
from .neuralnet import (
    AdamState,
    DenseNet,
    Lane,
    LayerSpec,
    _BLOCK,
    _EPS_CLAMP,
    adam_step,
    mse_loss,
    row_blocks,
)
from .numerics import DomainError, RngStream, from_reim, sample_awgn, to_reim
from .scenarios import ScenarioPreset


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
        if not 0.0 < self.power < np.inf:
            raise DomainError(f"power budget must be positive and finite, got {self.power}")
        if not (0.0 <= self.dropout < 1.0):
            raise DomainError(f"dropout must be in [0,1), got {self.dropout}")
        if any(width < 1 for width in self.hidden):
            raise DomainError(f"hidden layer widths must be >= 1, got {self.hidden}")


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
            raise DomainError("iterations and batch must be >= 1")
        if self.loss_mode not in ("standard", "wasserstein"):
            raise DomainError(f"unknown loss mode {self.loss_mode!r}")
        if self.loss_mode == "wasserstein" and not 0.0 < self.clip < np.inf:
            raise DomainError("wasserstein mode needs a positive finite clip bound")
        if not (0.0 < self.target_pf < 1.0):
            raise DomainError(f"target_pf must be in (0,1), got {self.target_pf}")
        if not 0.0 < self.lr < np.inf:
            raise DomainError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.mu < np.inf:
            raise DomainError(f"mu must be >= 0 and finite, got {self.mu}")
        if self.disc_warmup < 0:
            raise DomainError(f"disc_warmup must be >= 0, got {self.disc_warmup}")
        if self.snapshot_every < 0:
            raise DomainError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if self.snapshot_every and self.snapshot_trials < 1:
            raise DomainError("snapshot_trials must be >= 1 while snapshots are on")


def _column(key: str) -> property:
    """A read-only property: key's value in every row of a TrainLog, in order."""
    return property(lambda log: [row[key] for row in log.rows])


@dataclass
class TrainLog:
    """One row per iteration, its keys ``iteration``, ``gen_loss``,
    ``covert_loss``, ``decode_mse``, ``disc_loss`` (one value per warden) and
    ``covert_metric``, plus the periodic metric snapshots."""

    rows: list[dict] = field(default_factory=list)
    snapshots: list[dict] = field(default_factory=list)

    gen_loss = _column("gen_loss")
    covert_loss = _column("covert_loss")
    decode_mse = _column("decode_mse")
    disc_loss = _column("disc_loss")
    covert_metric = _column("covert_metric")


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

    def draw(self, gen: np.random.Generator, count: int):
        """Draw count slots' generator inputs, messages first: (m, z)."""
        return sample_latents(self.gen_spec, gen, count)

    def encode(self, m: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The generator's eval-mode power-feasible signals for drawn inputs."""
        return generate_signal(self, m, z)[0]

    def decode(self, y_b: np.ndarray, bob_taps: np.ndarray) -> np.ndarray:
        """The learned decoder's eval-mode soft bits for Bob's received slots."""
        return self.decoder.forward(decoder_input(y_b, bob_taps))[0]


def db_to_linear(db: float) -> float:
    """10^(db/10); a DomainError unless that is positive and finite."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = np.inf
    if not 0.0 < linear < np.inf:
        raise DomainError(f"{db} dB is {linear} in linear units, not positive and finite")
    return linear


def snr_db_to_bob_sigma2(power: float, snr_db: float) -> float:
    """SNR at Bob is defined as P / sigma_B^2, which must be positive and finite."""
    sigma2 = power / db_to_linear(snr_db)
    if not 0.0 < sigma2 < np.inf:
        raise DomainError(f"Bob's noise variance at {snr_db} dB SNR is {sigma2}, out of range")
    return sigma2


def decoder_input(y_b: np.ndarray, bob_taps: np.ndarray) -> np.ndarray:
    """Decoder features: matched-filtered received slot plus the CSI taps.

    Bob has perfect CSI, so the channel-matched filter (correlate with the
    conjugate taps) is applied before the learned decoder; it is linear in
    y_b and removes the arbitrary channel phase the MLP would otherwise
    have to learn to invert.
    """
    return np.concatenate([to_reim(propagate_adjoint(y_b, bob_taps)),
                           to_reim(bob_taps)], axis=1)


def _mlp(dims: list[int], act: str, out_act: str, dropout: float = 0.0) -> list[LayerSpec]:
    """Layer specs through dims: act and dropout on all but the last, out_act there."""
    hidden = [LayerSpec(a, b, act, dropout) for a, b in zip(dims[:-2], dims[1:-1])]
    return [*hidden, LayerSpec(dims[-2], dims[-1], out_act)]


_HIDDEN = (64, 64, 64)  # the hidden widths of every warden and of Bob's decoder


def build_system(gen_spec: GeneratorSpec, scenario: ScenarioPreset, rng: RngStream,
                 loss_mode: str = "standard", train_snr_db: float = 20.0) -> System:
    """Construct generator, decoder and one discriminator per warden."""
    n2 = 2 * gen_spec.n
    generator = DenseNet(_mlp([gen_spec.message_bits + gen_spec.noise_dim, *gen_spec.hidden, n2],
                              "relu", "linear", gen_spec.dropout), rng.child(1))
    disc_out = "linear" if loss_mode == "wasserstein" else "sigmoid"
    disc_layers = _mlp([n2, *_HIDDEN, 1], "leaky-relu", disc_out)
    wardens = DenseNet.stack([DenseNet(disc_layers, rng.child(10 + i))
                              for i in range(scenario.k)])
    # decoder sees y_B plus Bob's (perfect-CSI) tap gains as re/im pairs
    decoder = DenseNet(_mlp([n2 + 2 * scenario.n_taps, *_HIDDEN, gen_spec.message_bits],
                            "relu", "tanh"), rng.child(2))
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


def sample_warden_taps(scenario: ScenarioPreset, batch: int,
                       gen: np.random.Generator) -> np.ndarray:
    """Draw (K, batch, L) warden tap gains, optionally cross-warden correlated."""
    cfg = scenario.warden_config(0)
    if scenario.correlated_wardens:
        shared = np.sqrt(scenario.warden_mix) * sample_taps(cfg, gen, batch)
        own = np.sqrt(1.0 - scenario.warden_mix)
        return np.stack([shared + own * sample_taps(cfg, gen, batch)
                         for _ in range(scenario.k)])
    return np.stack([sample_taps(cfg, gen, batch) for _ in range(scenario.k)])


def sample_bob_taps(scenario: ScenarioPreset, batch: int,
                    gen: np.random.Generator) -> np.ndarray:
    """Draw (batch, L) Bob tap gains."""
    return sample_taps(scenario.bob_config(), gen, batch)


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
        q = 1.0 - np.clip(p, _EPS_CLAMP, 1.0 - _EPS_CLAMP)
        covert_terms = system.lambdas * np.mean(np.log(q), axis=-1)
        gp = np.where((p > _EPS_CLAMP) & (p < 1.0 - _EPS_CLAMP), -lam / q / batch, 0.0)[..., None]
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
    # the matched filter is the channel's adjoint, so its adjoint is the channel
    grad_y_b = propagate(from_reim(gin[:, :n2]), bob_taps)
    grad_s += propagate_adjoint(grad_y_b, bob_taps)

    cache, s_raw, scale = aux
    grad_raw = project_power_backward(grad_s, s_raw, scale)
    gen_grads = system.generator.backward(cache, to_reim(grad_raw))[0]
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


# The kernels draw per chunk of _CHUNK trials, each draw just before the Lane
# step that reads it, so the draws alive do not grow with the trial count.
# One urban evaluate_system of 20,000 trials, after a first one in the same
# process (2 CPUs, one BLAS thread), per chunk size: traced peak, minor page
# faults and time over two to three runs.
#   512 rows     4.3 MB  85,100 faults       0.50-0.67 s
#   1,024 rows   6.4 MB   3,700-10,700       0.39-0.50 s
#   2,048 rows  10.4 MB   3,400-4,800        0.37-0.49 s
#   4,096 rows  18.6 MB   4,800-6,600        0.33-0.44 s
#   whole-array draws 44.1 MB, 7,800 faults, 0.49-0.50 s
# 2,048 is the smallest size whose faults stayed under whole-array draws' in
# every run.
_CHUNK = 4 * _BLOCK


def _generate(system: System, m: np.ndarray, z: np.ndarray, s: np.ndarray,
              energy: np.ndarray) -> None:
    """One chunk's generator block loop: signals into s, their energies into energy."""
    for sl in row_blocks(len(m)):
        s[sl] = system.encode(m[sl], z[sl])
        energy[sl] = np.sum(np.abs(s[sl]) ** 2, axis=1)


def _detect_h1(disc: DenseNet, s: np.ndarray, taps: np.ndarray, noise: np.ndarray,
               out: np.ndarray, ex: np.ndarray) -> None:
    """One warden's H1 block loop over a chunk: received energies into ex,
    verdicts into out."""
    for sl in row_blocks(len(s)):
        x1 = propagate(s[sl], taps[sl])
        ex[sl] = np.sum(np.abs(x1) ** 2, axis=1)
        out[sl] = disc.forward(to_reim(x1 + noise[sl]))[0][:, 0]


def _detect_h0(disc: DenseNet, y0: np.ndarray, out: np.ndarray) -> None:
    """One warden's H0 block loop over a chunk: verdicts on its calibration
    slots y0 into out."""
    for sl in row_blocks(len(y0)):
        out[sl] = disc.forward(to_reim(y0[sl]))[0][:, 0]


def warden_detection(system: System, gen: np.random.Generator, trials: int,
                     calib: int, target_pf: float = 0.1):
    """Per-warden detection of trials fresh signals; returns
    (list[WardenMetrics], csr, mean signal energy).

    Each learned discriminator is thresholded at the target false-alarm
    rate on calib fresh H0 slots; pd_lrt is the genie-LRT bound on the
    same H1 cases. Per chunk of trials the calling thread draws the
    latents, the K warden taps and the K warden noises, then per chunk of
    calib the K wardens' H0 slots; a warden set's noises are drawn warden
    by warden, as one sample_awgn call of K variances draws them. Each draw
    is followed by its step on the call's own Lane: the chunk's generator
    after the latents, a warden's H1 block loop after its noise, its H0
    block loop after its slots. At 10,000 6g-dense trials this traced an
    11.1 MB peak, against 22.3 MB when each chunk's K noises were drawn and
    run as one step.
    """
    scen = system.scenario
    n, variances = system.gen_spec.n, scen.warden_sigma2
    energy = np.empty(trials)
    out1, ex = np.empty((scen.k, trials)), np.empty((scen.k, trials))
    out0 = np.empty((scen.k, calib))
    discs = system.discriminators
    # noises are arguments, not names, so each is freed when its step ends
    with Lane() as lane:
        for rows in row_blocks(trials, _CHUNK):
            count = rows.stop - rows.start
            s = np.empty((count, n), dtype=complex)
            lane.run(_generate, system, *system.draw(gen, count), s, energy[rows])
            taps = sample_warden_taps(scen, count, gen)
            for i, disc in enumerate(discs):
                lane.run(_detect_h1, disc, s, taps[i],
                         sample_awgn(n, variances[i], gen, count=count),
                         out1[i, rows], ex[i, rows])
        for rows in row_blocks(calib, _CHUNK):
            for i, disc in enumerate(discs):
                lane.run(_detect_h0, disc,
                         sample_awgn(n, variances[i], gen, count=rows.stop - rows.start),
                         out0[i, rows])
    detected = np.zeros((scen.k, trials), dtype=bool)
    out = []
    for i, sigma2 in enumerate(scen.warden_sigma2):
        thr = np.quantile(out0[i], target_pf)
        detected[i] = out1[i] < thr
        out.append(WardenMetrics(pd=float(np.mean(detected[i])),
                                 pf=float(np.mean(out0[i] < thr)),
                                 pd_lrt=float(np.mean(pd_at_target_pf(ex[i], sigma2,
                                                                      target_pf)))))
    return out, csr_from_detections(detected), float(np.mean(energy))


def decode_ber(tx, scenario: ScenarioPreset, trials: int, sigma2: float,
               gen: np.random.Generator) -> float:
    """Bit error rate of transmitter tx over trials fresh slots at Bob's
    noise variance sigma2.

    tx is a System or a NoiseInjectionTransmitter: tx.draw(gen, count)
    draws a chunk's inputs, messages first; tx.encode maps a block of them
    to signals; tx.decode(y_b, taps) returns soft or hard bits. Per chunk of
    trials the calling thread draws the inputs, Bob's taps and Bob's noise,
    and the chunk's encode, channel and decode run in row blocks on the
    call's own Lane.
    """
    spec = tx.gen_spec
    errors = np.zeros(1, dtype=np.int64)

    def count_errors(drawn, taps, noise):
        m = drawn[0]
        for sl in row_blocks(len(m)):
            s = tx.encode(*(a[sl] for a in drawn))
            m_hat = tx.decode(propagate(s, taps[sl]) + noise[sl], taps[sl])
            errors[0] += np.count_nonzero(np.sign(m_hat + 1e-12) != m[sl])

    with Lane() as lane:
        for rows in row_blocks(trials, _CHUNK):
            count = rows.stop - rows.start
            lane.run(count_errors, tx.draw(gen, count), sample_bob_taps(scenario, count, gen),
                     sample_awgn(spec.n, sigma2, gen, count=count))
    return int(errors[0]) / (trials * spec.message_bits)


def snapshot_metrics(system: System, rng: RngStream, trials: int = 512,
                     target_pf: float = 0.1) -> dict:
    """Quick eval-mode metrics: learned-warden pd/CSR, genie pd, BER.

    Learned-warden decisions come from per-discriminator thresholds
    calibrated on 2,000 fresh H0 samples at the target false-alarm rate;
    CSR is the fraction of H1 cases no warden flags. BER is measured on
    fresh signals, drawn after the detection draws.
    """
    gen = rng.generator()
    wardens, csr, energy = warden_detection(system, gen, trials, 2000, target_pf)
    ber = decode_ber(system, system.scenario, trials, system.bob_sigma2, gen)
    pd_learned = [w.pd for w in wardens]
    pd_lrt = [w.pd_lrt for w in wardens]
    return {
        "csr": csr,
        "ber": ber,
        "pd_learned": pd_learned,
        "pf_learned": [w.pf for w in wardens],
        "pd_lrt": pd_lrt,
        "mean_pd_learned": float(np.mean(pd_learned)),
        "mean_pd_lrt": float(np.mean(pd_lrt)),
        "mean_signal_energy": energy,
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
    b0, n = y0.shape[-2:]
    x = np.empty((*y0.shape[:-2], b0 + y1.shape[-2], 2 * n))
    x[..., :b0, :n], x[..., :b0, n:] = y0.real, y0.imag
    x[..., b0:, :n], x[..., b0:, n:] = y1.real, y1.imag
    out, cache = disc.forward(x, train=True, rng=rng)
    if loss_mode == "wasserstein":
        # maximize mean c(noise) - mean c(signal)
        gout = np.zeros_like(out)
        gout[..., :b0, :] = -1.0 / b0
        gout[..., b0:, :] = 1.0 / y1.shape[-2]
        value = np.mean(out[..., :b0, 0], axis=-1) - np.mean(out[..., b0:, 0], axis=-1)
    else:
        # one clamp gives the objective and the gradient of the mean cross
        # entropy over all 2B rows, labels 1 on H0: bce_loss's, zero where clamped
        p = np.clip(out, _EPS_CLAMP, 1 - _EPS_CLAMP)
        p0, q1 = p[..., :b0, :], 1 - p[..., b0:, :]
        value = np.mean(np.log(p0[..., 0]), axis=-1) + np.mean(np.log(q1[..., 0]), axis=-1)
        gout = np.where((out > _EPS_CLAMP) & (out < 1 - _EPS_CLAMP),
                        np.concatenate([-1.0 / p0, 1.0 / q1], axis=-2) / out.shape[-2], 0.0)
    grads, _ = disc.backward(cache, gout)
    names = [f"disc_{i}" for i in range(len(disc.params))]
    _require_finite(value, names, "discriminator loss", where)
    _require_finite(grads, names, "gradient", where)
    adam_step(adam, disc, grads)
    if loss_mode == "wasserstein":
        disc.clip_weights(clip)
    return value


def train(cfg: TrainConfig, scenario: ScenarioPreset, rng: RngStream,
          gen_spec: GeneratorSpec | None = None) -> tuple[System, TrainLog]:
    """Build the system the arguments describe and run the alternating loop.

    Per iteration: sample latents, per-warden channels and noises, take
    one ascent step per discriminator on fresh H0/H1 batches, then one
    descent step on the generator's composite loss (decoder updated on
    the same pass). Fully deterministic given (cfg, scenario, rng, gen_spec).
    """
    spec = gen_spec or GeneratorSpec()
    system = build_system(spec, scenario, rng.child(0),
                          loss_mode=cfg.loss_mode, train_snr_db=cfg.train_snr_db)
    gen = rng.child(100).generator()
    log = TrainLog()

    adam_g = AdamState(system.generator.param_count(), lr=cfg.lr)
    adam_dec = AdamState(system.decoder.param_count(), lr=cfg.lr)
    adam_d = AdamState(system.wardens.params.shape, lr=cfg.lr)

    def disc_round(where: str):
        """Draw one round and take the discriminators' ascent step on it."""
        m, z = sample_latents(spec, gen, cfg.batch)
        w_taps = sample_warden_taps(scenario, cfg.batch, gen)
        w_noise = sample_awgn(spec.n, scenario.warden_sigma2, gen, count=cfg.batch)
        w_noise0 = sample_awgn(spec.n, scenario.warden_sigma2, gen, count=cfg.batch)
        b_taps = sample_bob_taps(scenario, cfg.batch, gen)
        b_noise = sample_awgn(spec.n, system.bob_sigma2, gen, count=cfg.batch)
        s, _ = generate_signal(system, m, z)
        _require_finite(s, ["generator"], "signal", where)
        y1 = propagate(s, w_taps) + w_noise
        d_losses = _disc_update(system.wardens, adam_d, w_noise0, y1, cfg.loss_mode,
                                cfg.clip, gen, where)
        return m, z, w_taps, w_noise, b_taps, b_noise, d_losses.tolist()

    # discriminator warm-up so the first CSR snapshot reflects trained wardens
    for step in range(1, cfg.disc_warmup + 1):
        disc_round(f"warm-up step {step}")

    snap_rng = rng.child(200)

    def snapshot(it: int):
        """Log iteration it's snapshot, its ``iteration`` key last."""
        snap = snapshot_metrics(system, snap_rng.child(it), trials=cfg.snapshot_trials,
                                target_pf=cfg.target_pf)
        log.snapshots.append({**snap, "iteration": it})

    if cfg.snapshot_every:
        snapshot(0)

    for it in range(1, cfg.iterations + 1):
        m, z, w_taps, w_noise, b_taps, b_noise, d_losses = disc_round(f"iteration {it}")
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

        log.rows.append({"iteration": it, "gen_loss": loss, "covert_loss": covert,
                         "decode_mse": mse, "disc_loss": d_losses,
                         "covert_metric": float(np.mean(d1_means))})
        if cfg.snapshot_every and it % cfg.snapshot_every == 0:
            snapshot(it)

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
        y1 = propagate(s, taps) + sample_awgn(spec.n, scen.warden_sigma2, gen, count=batch)
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
