"""Low-level numerics: complex vector helpers, Q-function, correlated
complex-Gaussian sampling and reproducible counter-based RNG streams.

Complex baseband vectors are plain numpy complex128 arrays. The real/imag
pair view used at network boundaries (a length-2N real vector, real half
first) is provided by :func:`to_reim` / :func:`from_reim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special


class DomainError(ValueError):
    """Raised when an input is outside an operation's domain."""


class DecompositionError(ValueError):
    """Raised when a matrix factorization fails (not positive definite)."""


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

def q_function(x: float) -> float:
    """Gaussian upper-tail probability P(Z > x) for standard normal Z."""
    x = float(x)
    if not np.isfinite(x):
        raise DomainError(f"q_function requires finite input, got {x}")
    return float(0.5 * special.erfc(x / np.sqrt(2.0)))


def q_inverse(p: float) -> float:
    """Inverse of :func:`q_function` on (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"q_inverse requires p in (0,1), got {p}")
    return float(np.sqrt(2.0) * special.erfcinv(2.0 * p))


# ---------------------------------------------------------------------------
# correlation matrices and correlated sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationMatrix:
    """Exponential correlation matrix entry(m,n) = rho^|m-n|."""

    dim: int
    rho: float

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")
        if not (0.0 <= self.rho < 1.0):
            raise DomainError(f"rho must be in [0,1), got {self.rho}")

    @property
    def entries(self) -> np.ndarray:
        idx = np.arange(self.dim)
        return self.rho ** np.abs(idx[:, None] - idx[None, :])


def cholesky(corr: CorrelationMatrix | np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T equal to the correlation matrix."""
    mat = corr.entries if isinstance(corr, CorrelationMatrix) else np.asarray(corr, dtype=float)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"matrix is not positive definite: {exc}") from exc


@lru_cache(maxsize=64)
def _cached_factor(corr: CorrelationMatrix) -> np.ndarray:
    factor = cholesky(corr)
    factor.flags.writeable = False
    return factor


def sample_correlated_cgn(corr: CorrelationMatrix, rng: RngStream | np.random.Generator,
                          count: int = 1) -> np.ndarray:
    """Draw circularly symmetric complex Gaussian vectors with E[v v^H] = R.

    Real and imaginary parts each carry covariance R/2. Returns shape
    (count, dim); squeeze to (dim,) with count=1 left to the caller.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    factor = _cached_factor(corr)
    white = gen.standard_normal((count, corr.dim)) + 1j * gen.standard_normal((count, corr.dim))
    return (white / np.sqrt(2.0)) @ factor.T


def sample_awgn(n: int, variance: float, rng: RngStream | np.random.Generator,
                count: int | None = None) -> np.ndarray:
    """I.i.d. circularly symmetric complex noise with per-entry E[|n_k|^2] = variance."""
    if variance <= 0:
        raise DomainError(f"noise variance must be > 0, got {variance}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    shape = (n,) if count is None else (count, n)
    scale = np.sqrt(variance / 2.0)
    out = np.empty(shape, dtype=complex)
    out.real = scale * gen.standard_normal(shape)
    out.imag = scale * gen.standard_normal(shape)
    return out
