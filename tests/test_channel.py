"""Tests for the channel layer: configuration validation, the tap
correlation and its Cholesky factor, hand-checked convolution, the adjoint
identity (also over leading warden/batch axes) and tap statistics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertsim.channel import (
    ChannelConfig,
    propagate,
    propagate_adjoint,
    sample_taps,
    tap_factor,
)
from covertsim.numerics import DomainError, RngStream


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_defaults_are_valid():
    cfg = ChannelConfig()
    assert cfg.n_taps == 4
    assert cfg.correlation().shape == (4, 4)
    assert cfg.correlation()[0, 1] == 0.5


@pytest.mark.parametrize("kwargs", [
    {"n_taps": 0},
    {"rho": 1.0},
    {"rho": -0.2},
    {"rho": float("nan")},
    {"noise_variance": -1.0},
    {"noise_variance": 0.0},
])
def test_config_validation(kwargs):
    with pytest.raises(DomainError):
        ChannelConfig(**kwargs)


# ---------------------------------------------------------------------------
# tap correlation and its factor
# ---------------------------------------------------------------------------

def test_correlation_entries_hand_value():
    mat = ChannelConfig(n_taps=3, rho=0.5).correlation()
    np.testing.assert_allclose(mat, [[1.0, 0.5, 0.25],
                                     [0.5, 1.0, 0.5],
                                     [0.25, 0.5, 1.0]])


def test_correlation_rho_zero_is_identity():
    np.testing.assert_allclose(ChannelConfig(n_taps=4, rho=0.0).correlation(), np.eye(4))


def test_tap_factor_hand_value():
    # for [[1, .5], [.5, 1]]: L = [[1, 0], [.5, sqrt(.75)]]
    np.testing.assert_allclose(tap_factor(2, 0.5), [[1.0, 0.0], [0.5, np.sqrt(0.75)]])


def test_tap_factor_reconstructs_and_is_cached_read_only():
    factor = tap_factor(5, 0.7)
    np.testing.assert_allclose(factor @ factor.T,
                               ChannelConfig(n_taps=5, rho=0.7).correlation(), atol=1e-12)
    assert np.allclose(factor, np.tril(factor))
    assert tap_factor(5, 0.7) is factor
    assert not factor.flags.writeable


# ---------------------------------------------------------------------------
# propagation: hand-checked linear convolution with zero prefix
# ---------------------------------------------------------------------------

def test_propagate_hand_convolution():
    s = np.array([1.0, 1.0], dtype=complex)
    taps = np.array([1.0, 0.5j])
    # out[0] = h0*s0; out[1] = h0*s1 + h1*s0
    np.testing.assert_allclose(propagate(s, taps), [1.0, 1.0 + 0.5j])


def test_propagate_truncates_to_slot_length():
    # tail of the full convolution is dropped, not wrapped
    s = np.array([0.0, 0.0, 1.0], dtype=complex)
    taps = np.array([1.0, 2.0])
    np.testing.assert_allclose(propagate(s, taps), [0.0, 0.0, 1.0])


def test_propagate_matches_numpy_convolve():
    gen = RngStream(5).generator()
    s = gen.standard_normal(32) + 1j * gen.standard_normal(32)
    taps = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    expected = np.convolve(s, taps)[:32]
    np.testing.assert_allclose(propagate(s, taps), expected, atol=1e-12)


def test_propagate_batched_per_row_taps():
    s = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    taps = np.array([[1.0, 1.0], [2.0, 3.0]], dtype=complex)
    out = propagate(s, taps)
    np.testing.assert_allclose(out, [[1.0, 1.0], [0.0, 2.0]])


def test_propagate_keeps_batch_of_one():
    s = np.array([[1.0, 0.0, 0.0]], dtype=complex)
    out = propagate(s, np.array([[1.0, 2.0]], dtype=complex))
    assert out.shape == (1, 3)
    np.testing.assert_allclose(out, [[1.0, 2.0, 0.0]])


def test_propagate_single_tap_is_scaling():
    s = np.array([1.0 + 1.0j, 2.0], dtype=complex)
    np.testing.assert_allclose(propagate(s, np.array([2.0j])), 2.0j * s)


def test_propagate_rejects_short_signal():
    with pytest.raises(DomainError):
        propagate(np.ones(2, dtype=complex), np.ones(4, dtype=complex))


def test_propagate_adjoint_identity():
    # <A s, g> == <s, A^H g> for the complex inner product
    gen = RngStream(6).generator()
    s = gen.standard_normal((8, 16)) + 1j * gen.standard_normal((8, 16))
    g = gen.standard_normal((8, 16)) + 1j * gen.standard_normal((8, 16))
    taps = gen.standard_normal((8, 4)) + 1j * gen.standard_normal((8, 4))
    lhs = np.sum(np.conj(propagate(s, taps)) * g)
    rhs = np.sum(np.conj(s) * propagate_adjoint(g, taps))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 5), batch=st.integers(1, 6), n=st.integers(4, 12),
       n_taps=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
# a one-sample slice (n - l == 1) multiplies 1 ulp differently when broadcast
@example(k=1, batch=1, n=4, n_taps=4, seed=1087)
def test_propagate_leading_axes_match_per_row_loop(k, batch, n, n_taps, seed):
    gen = np.random.default_rng(seed)

    def cgn(*shape):
        return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

    s, g, taps = cgn(batch, n), cgn(k, batch, n), cgn(k, batch, n_taps)
    y = propagate(s, taps)  # one batch through K per-warden channels
    adj = propagate_adjoint(g, taps)
    assert y.shape == adj.shape == (k, batch, n)
    for i in range(k):
        for j in range(batch):
            np.testing.assert_allclose(y[i, j], propagate(s[j], taps[i, j]),
                                       rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(adj[i, j], propagate_adjoint(g[i, j], taps[i, j]),
                                       rtol=1e-13, atol=1e-13)
    # <A s, g> == <s, A^H g> warden by warden
    lhs = np.sum(np.conj(y) * g, axis=(1, 2))
    rhs = np.sum(np.conj(s) * adj, axis=(1, 2))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_propagate_adjoint_hand_value():
    g = np.array([[1.0, 1.0j]], dtype=complex)
    taps = np.array([[1.0, 2.0]], dtype=complex)
    # grad_s[0] = conj(h0) g[0] + conj(h1) g[1]; grad_s[1] = conj(h0) g[1]
    np.testing.assert_allclose(propagate_adjoint(g, taps), [[1.0 + 2.0j, 1.0j]])


# ---------------------------------------------------------------------------
# tap statistics
# ---------------------------------------------------------------------------

def test_tap_unit_mean_power_and_correlation():
    cfg = ChannelConfig(n_taps=4, rho=0.5)
    taps = sample_taps(cfg, RngStream(8).generator(), count=200_000)
    power = np.mean(np.abs(taps) ** 2, axis=0)
    np.testing.assert_allclose(power, 1.0, atol=0.02)
    emp = (taps.conj().T @ taps) / taps.shape[0]
    np.testing.assert_allclose(emp.real, cfg.correlation(), atol=0.02)


def test_tap_covariance_monte_carlo():
    cfg = ChannelConfig(n_taps=3, rho=0.6)
    taps = sample_taps(cfg, RngStream(0).generator(), count=200_000)
    emp = (taps.conj().T @ taps) / taps.shape[0]
    np.testing.assert_allclose(emp.real, cfg.correlation(), atol=0.02)
    np.testing.assert_allclose(emp.imag, 0.0, atol=0.02)
    np.testing.assert_allclose(taps.mean(axis=0), 0.0, atol=0.01)


def test_taps_are_circularly_symmetric():
    # pseudo-covariance E[h h^T] of a circular Gaussian vanishes
    taps = sample_taps(ChannelConfig(n_taps=3, rho=0.6), RngStream(1).generator(), count=200_000)
    pseudo = (taps.T @ taps) / taps.shape[0]
    np.testing.assert_allclose(np.abs(pseudo), 0.0, atol=0.02)
