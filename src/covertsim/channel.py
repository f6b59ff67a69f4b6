"""Block-fading frequency-selective channel synthesis.

Taps are drawn fresh for every slot from a correlated complex Gaussian
and held for the slot. Propagation is zero-prefix linear convolution
truncated to the slot length (the l-th tap delays the signal by l
samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import DomainError


@dataclass(frozen=True)
class ChannelConfig:
    """Per-receiver channel parameters (defaults follow the simulator presets)."""

    n_taps: int = 4
    rho: float = 0.5
    noise_variance: float = 1.0

    def __post_init__(self):
        if self.n_taps < 1:
            raise DomainError(f"n_taps must be >= 1, got {self.n_taps}")
        if not (0.0 <= self.rho < 1.0):
            raise DomainError(f"rho must be in [0,1), got {self.rho}")
        if self.noise_variance <= 0:
            raise DomainError(f"noise_variance must be > 0, got {self.noise_variance}")

    def correlation(self) -> np.ndarray:
        """The (L, L) tap correlation R, entry (m, n) = rho^|m - n|."""
        idx = np.arange(self.n_taps)
        return self.rho ** np.abs(idx[:, None] - idx[None, :])


@lru_cache(maxsize=64)
def tap_factor(n_taps: int, rho: float) -> np.ndarray:
    """Read-only lower Cholesky factor L of R, with L @ L.T = R. R is the
    AR(1) covariance, positive definite for every rho ChannelConfig accepts."""
    factor = np.linalg.cholesky(ChannelConfig(n_taps, rho).correlation())
    factor.flags.writeable = False
    return factor


def sample_taps(cfg: ChannelConfig, gen: np.random.Generator, count: int) -> np.ndarray:
    """Draw (count, L) tap gains, one row per slot, circularly symmetric
    CN(0, R): unit mean power, real and imaginary parts each of covariance R/2."""
    shape = (count, cfg.n_taps)
    white = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return (white / np.sqrt(2.0)) @ tap_factor(cfg.n_taps, cfg.rho).T


def _zeros_for(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero output of the broadcast leading shape of x and taps, x's length."""
    lead = np.broadcast_shapes(x.shape[:-1], taps.shape[:-1])
    return np.zeros((*lead, x.shape[-1]), dtype=np.result_type(x, taps))


def propagate(s: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Apply the multipath channel: out[k] = sum_l h_l s[k-l], zero-prefixed.

    Leading axes broadcast: s (..., N) with taps (..., L), e.g. one (B, N)
    batch through (K, B, L) per-warden taps gives (K, B, N).
    """
    s, taps = np.asarray(s), np.asarray(taps)
    n, n_taps = s.shape[-1], taps.shape[-1]
    if n < n_taps:
        raise DomainError(f"signal length {n} shorter than tap count {n_taps}")
    out = _zeros_for(s, taps)
    for l in range(n_taps):
        out[..., l:] += taps[..., l:l + 1] * s[..., :n - l]
    return out


def propagate_adjoint(grad_y: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`propagate` in s, for reverse-mode gradients.

    grad_s[k] = sum_l conj(h_l) grad_y[k+l]; treating complex vectors as
    stacked real pairs this is the exact transpose of the real-linear map.
    Leading axes broadcast as in :func:`propagate`.
    """
    grad_y, taps = np.asarray(grad_y), np.asarray(taps)
    n = grad_y.shape[-1]
    out = _zeros_for(grad_y, taps)
    for l in range(taps.shape[-1]):
        out[..., :n - l] += np.conj(taps[..., l:l + 1]) * grad_y[..., l:]
    return out
