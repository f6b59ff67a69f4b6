"""Low-level numerics: complex vector helpers, Q-function, complex white
Gaussian noise and reproducible counter-based RNG streams.

Complex baseband vectors are plain numpy complex128 arrays. The real/imag
pair view used at network boundaries (a length-2N real vector, real half
first) is provided by :func:`to_reim` / :func:`from_reim`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Raised when an input is outside an operation's domain."""


# ---------------------------------------------------------------------------
# complex vector helpers
# ---------------------------------------------------------------------------

def energy(v: np.ndarray) -> float:
    """Total energy sum(|v_k|^2) of a complex vector."""
    return float(np.sum(np.abs(v) ** 2))


def to_reim(v: np.ndarray) -> np.ndarray:
    """Map a complex vector (..., N) to stacked reals (..., 2N), real half first."""
    return np.concatenate([v.real, v.imag], axis=-1)


def from_reim(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_reim`; last axis must have even length."""
    n2 = x.shape[-1]
    if n2 % 2 != 0:
        raise DomainError(f"real/imag pair vector must have even length, got {n2}")
    n = n2 // 2
    return x[..., :n] + 1j * x[..., n:]


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream_id) pair naming one deterministic Philox stream.

    Identical pairs replay identical sequences; distinct stream ids give
    statistically independent streams, so per-trial streams can be handed
    to parallel processes without coordination.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive an independent substream, stable across runs."""
        mixed = _splitmix64(self.stream_id ^ _splitmix64(index))
        return RngStream(self.seed, mixed)


# ---------------------------------------------------------------------------
# Q-function
# ---------------------------------------------------------------------------

def q_function(x):
    """Gaussian upper-tail probability P(Z > x) for standard normal Z.

    A scalar gives a float; an array gives an array of its shape.
    """
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise DomainError(f"q_function requires finite input, got {x}")
    # numpy has no erfc, so the standard library's maps over the values: 1-2 ms per 20k
    q = 0.5 * np.fromiter(map(math.erfc, (a / math.sqrt(2.0)).ravel().tolist()), float, a.size)
    return float(q[0]) if a.ndim == 0 else q.reshape(a.shape)


def q_inverse(p: float) -> float:
    """Inverse of :func:`q_function` on (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"q_inverse requires p in (0,1), got {p}")
    return -statistics.NormalDist().inv_cdf(p)


# ---------------------------------------------------------------------------
# white noise
# ---------------------------------------------------------------------------

def sample_awgn(n: int, variance: float | tuple[float, ...], gen: np.random.Generator,
                count: int) -> np.ndarray:
    """(count, n) i.i.d. circularly symmetric complex noise, E[|n_k|^2] = variance.

    A sequence of K variances gives (K, count, n) noise, drawn as K one-variance
    calls in turn: each variance's real part, then its imaginary part.
    """
    var = np.asarray(variance, dtype=float)
    if not np.all(var > 0):
        raise DomainError(f"noise variance must be > 0, got {variance}")
    shape = (count, n)
    out = np.empty(var.shape + shape, dtype=complex)
    # one reused buffer, scaled in place: the same draws and products as
    # scale * gen.standard_normal(shape) without a fresh array per part
    draw = np.empty(shape)
    for v, part in zip(var.reshape(-1), out.reshape(-1, *shape)):
        scale = np.sqrt(v / 2.0)
        for half in (part.real, part.imag):
            gen.standard_normal(out=draw)
            draw *= scale
            half[...] = draw
    return out
