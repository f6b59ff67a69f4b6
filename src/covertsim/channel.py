"""Time-varying frequency-selective channel synthesis.

Taps are drawn once per slot from a correlated complex Gaussian, then
phase-rotated by the Doppler term for the slot's start time. Propagation
is zero-prefix linear convolution truncated to the slot length (the l-th
tap delays the signal by l samples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    CorrelationMatrix,
    DomainError,
    RngStream,
    sample_correlated_cgn,
)


@dataclass(frozen=True)
class ChannelConfig:
    """Per-receiver channel parameters (defaults follow the simulator presets)."""

    n_taps: int = 4
    rho: float = 0.5
    doppler_hz: float = 10.0
    symbol_duration: float = 1e-6
    noise_variance: float = 1.0

    def __post_init__(self):
        if self.n_taps < 1:
            raise DomainError(f"n_taps must be >= 1, got {self.n_taps}")
        if not (0.0 <= self.rho < 1.0):
            raise DomainError(f"rho must be in [0,1), got {self.rho}")
        if self.doppler_hz < 0:
            raise DomainError(f"doppler_hz must be >= 0, got {self.doppler_hz}")
        if self.symbol_duration <= 0:
            raise DomainError(f"symbol_duration must be > 0, got {self.symbol_duration}")
        if self.noise_variance <= 0:
            raise DomainError(f"noise_variance must be > 0, got {self.noise_variance}")

    def correlation(self) -> CorrelationMatrix:
        return CorrelationMatrix(self.n_taps, self.rho)


def sample_taps(cfg: ChannelConfig, rng: RngStream | np.random.Generator, count: int,
                t: np.ndarray | None = None) -> np.ndarray:
    """Draw (count, L) correlated unit-mean-power tap gains.

    With per-row slot start times t, row i is Doppler-rotated to t[i].
    """
    taps = sample_correlated_cgn(cfg.correlation(), rng, count=count)
    return taps if t is None else doppler_rotate(taps, t, cfg.doppler_hz)


def doppler_rotate(base_taps: np.ndarray, t, doppler_hz: float) -> np.ndarray:
    """Rotate taps by exp(j 2 pi f_d t); magnitudes are untouched.

    A scalar t rotates every tap; an array t rotates row i of base_taps
    (leading axes broadcast) by the phase at t[i].
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError(f"time must be >= 0, got {t}")
    return base_taps * np.exp(2j * np.pi * doppler_hz * t)[..., None]


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
