"""Analytic warden mathematics: matched likelihood-ratio test, threshold
calibration, closed-form detection probability and KL covertness budget.

The LRT warden here is genie-aided (it knows the noise-free received
signal exactly), so it upper-bounds any learned detector and doubles as
the oracle the learned discriminators are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, propagate, sample_taps
from .neuralnet import row_blocks
from .numerics import DomainError, RngStream, energy, q_function, q_inverse, sample_awgn


@dataclass
class LrtWarden:
    """Genie LRT detector: alarms when T = 2 Re(y^H x) exceeds its threshold."""

    known_x: np.ndarray
    sigma2: float
    threshold: float


@dataclass
class DetectionReport:
    pd: float
    pf: float
    trials: int


def lrt_statistic(y: np.ndarray, x: np.ndarray) -> float:
    """Matched-filter test statistic T = 2 Re(y^H x)."""
    y = np.asarray(y)
    x = np.asarray(x)
    if y.shape != x.shape:
        raise DomainError(f"shape mismatch: y {y.shape} vs x {x.shape}")
    return float(2.0 * np.real(np.vdot(y, x)))


def calibrate_threshold(x: np.ndarray, sigma2: float, target_pf: float) -> float:
    """Threshold on T that gives the requested analytic false-alarm rate.

    Under H0, T ~ Normal(0, 2 sigma2 ||x||^2).
    """
    if not (0.0 < target_pf < 1.0):
        raise DomainError(f"target_pf must be in (0,1), got {target_pf}")
    ex = energy(x)
    if ex <= 0:
        raise DomainError("known signal must have positive energy")
    if sigma2 <= 0:
        raise DomainError(f"sigma2 must be > 0, got {sigma2}")
    return float(np.sqrt(2.0 * sigma2 * ex) * q_inverse(target_pf))


def analytic_pd(gamma: float, x: np.ndarray, sigma2: float) -> float:
    """Closed-form detection probability of the matched LRT at ratio threshold gamma."""
    if gamma <= 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    ex = energy(x)
    if ex <= 0 or sigma2 <= 0:
        raise DomainError("x must be non-degenerate and sigma2 > 0")
    arg = (sigma2 * np.log(gamma) - ex) / np.sqrt(2.0 * sigma2 * ex)
    return q_function(arg)


def pd_at_target_pf(x_energy, sigma2, target_pf: float):
    """Detection probability of the genie LRT calibrated to the given P_F.

    Follows from the H0/H1 Gaussian statistics of T:
    P_D = Q(Q^-1(P_F) - sqrt(2 ||x||^2 / sigma2)).
    Accepts scalar or array x_energy (zero energy degrades to pd = pf), and
    a sigma2 that broadcasts against it, e.g. a (K, 1) column per warden.
    """
    arr = np.asarray(x_energy, dtype=float)
    if np.any(arr < 0) or np.any(np.asarray(sigma2) <= 0):
        raise DomainError("x_energy must be >= 0 and sigma2 > 0")
    return q_function(q_inverse(target_pf) - np.sqrt(2.0 * arr / sigma2))


def kl_covertness(s: np.ndarray, tap_powers: np.ndarray, sigma2: float) -> float:
    """KL budget between the warden's H1 and H0 observation distributions.

    Approximated as sum_l E[|h_l|^2] ||s||^2 / sigma2; tap_powers carries
    the per-tap mean powers.
    """
    if sigma2 <= 0:
        raise DomainError(f"sigma2 must be > 0, got {sigma2}")
    return float(np.sum(np.asarray(tap_powers)) * energy(s) / sigma2)


def gaussian_kl_empirical(x: np.ndarray, sigma2: float, trials: int,
                          rng: RngStream | np.random.Generator) -> float:
    """Plug-in KL estimate between CN(x, sigma2 I) and CN(0, sigma2 I).

    Averages the exact log-density ratio over H1 draws; both densities are
    known Gaussians here so no generic density estimation is needed.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = len(x)
    noise = sample_awgn(n, sigma2, gen, count=trials)
    y = x[None, :] + noise
    # log p1/p0 = (2 Re(y^H x) - ||x||^2) / sigma2
    stat = 2.0 * np.real(np.sum(np.conj(y) * x[None, :], axis=1)) - energy(x)
    return float(np.mean(stat) / sigma2)


def monte_carlo_roc(warden: LrtWarden, cfg: ChannelConfig, s: np.ndarray,
                    trials: int, rng: RngStream | np.random.Generator,
                    fixed_taps: np.ndarray | None = None) -> DetectionReport:
    """Empirical (pd, pf) of an LRT warden over simulated H0/H1 slots.

    With fixed_taps given, every H1 slot reuses those tap gains (the
    regime where the closed-form P_D is exact); otherwise taps are drawn
    fresh per slot and the warden is matched to each realization.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = len(s)
    taps = sample_taps(cfg, gen, count=trials) if fixed_taps is None else fixed_taps
    noise0 = sample_awgn(n, cfg.noise_variance, gen, count=trials)
    noise1 = sample_awgn(n, cfg.noise_variance, gen, count=trials)
    t0, t1 = np.empty(trials), np.empty(trials)
    for sl in row_blocks(trials):
        x = propagate(np.broadcast_to(s, (sl.stop - sl.start, n)),
                      taps if fixed_taps is not None else taps[sl])
        t0[sl] = 2.0 * np.real(np.sum(np.conj(noise0[sl]) * x, axis=1))
        t1[sl] = 2.0 * np.real(np.sum(np.conj(x + noise1[sl]) * x, axis=1))
    pf = float(np.mean(t0 > warden.threshold))
    pd = float(np.mean(t1 > warden.threshold))
    return DetectionReport(pd=pd, pf=pf, trials=trials)
