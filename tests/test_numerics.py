"""Tests for the numerics layer: complex helpers, Q-function against a
quadrature oracle, RNG streams and complex white Gaussian noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from covertsim.numerics import (
    DomainError,
    RngStream,
    energy,
    from_reim,
    q_function,
    q_inverse,
    sample_awgn,
    to_reim,
)


# ---------------------------------------------------------------------------
# complex vector helpers
# ---------------------------------------------------------------------------

def test_energy_hand_value():
    v = np.array([3.0 + 4.0j, 1.0, -2.0j])
    assert energy(v) == pytest.approx(25.0 + 1.0 + 4.0)


def test_energy_zero_vector():
    assert energy(np.zeros(5, dtype=complex)) == 0.0


def test_to_reim_layout_real_half_first():
    v = np.array([1.0 + 2.0j, 3.0 - 4.0j])
    np.testing.assert_allclose(to_reim(v), [1.0, 3.0, 2.0, -4.0])


def test_to_reim_batched():
    v = np.array([[1.0 + 1.0j], [2.0 - 2.0j]])
    np.testing.assert_allclose(to_reim(v), [[1.0, 1.0], [2.0, -2.0]])


def test_from_reim_odd_length_rejected():
    with pytest.raises(DomainError):
        from_reim(np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=16))
def test_reim_roundtrip(values):
    v = np.array(values, dtype=complex)
    np.testing.assert_allclose(from_reim(to_reim(v)), v)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=16))
def test_energy_matches_reim_energy(values):
    # energy is invariant under the real/imag repacking
    v = np.array(values, dtype=complex)
    assert energy(v) == pytest.approx(float(np.sum(to_reim(v) ** 2)), rel=1e-12)


# ---------------------------------------------------------------------------
# Q-function against an independent quadrature oracle
# ---------------------------------------------------------------------------

def _q_oracle(x):
    val, _ = integrate.quad(
        lambda t: np.exp(-t * t / 2.0) / np.sqrt(2.0 * np.pi), x, np.inf)
    return val


@pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 0.5, 1.0, 2.5, 4.0])
def test_q_function_matches_quadrature(x):
    assert q_function(x) == pytest.approx(_q_oracle(x), rel=1e-10)


def test_q_function_half_at_zero():
    assert q_function(0.0) == pytest.approx(0.5)


def test_q_function_rejects_non_finite():
    with pytest.raises(DomainError):
        q_function(np.inf)
    with pytest.raises(DomainError):
        q_function(np.nan)


def test_q_inverse_bisection_oracle():
    # independent oracle: bisection on the quadrature Q
    for p in (0.01, 0.1, 0.5, 0.9):
        lo, hi = -10.0, 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _q_oracle(mid) > p:
                lo = mid
            else:
                hi = mid
        assert q_inverse(p) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_q_roundtrip(p):
    assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-9)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_q_inverse_domain(p):
    with pytest.raises(DomainError):
        q_inverse(p)


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def test_rng_stream_replays_identically():
    a = RngStream(42).generator().standard_normal(100)
    b = RngStream(42).generator().standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_rng_stream_ids_differ():
    a = RngStream(42, 0).generator().standard_normal(100)
    b = RngStream(42, 1).generator().standard_normal(100)
    assert not np.allclose(a, b)


def test_rng_child_is_stable_and_distinct():
    s = RngStream(7)
    assert s.child(3) == s.child(3)
    assert s.child(3) != s.child(4)
    assert s.child(3).seed == 7
    a = s.child(3).generator().standard_normal(50)
    b = s.child(4).generator().standard_normal(50)
    assert not np.allclose(a, b)


def test_rng_nested_children_distinct():
    s = RngStream(7)
    assert s.child(1).child(2) != s.child(2).child(1)


def test_rng_stream_is_frozen():
    with pytest.raises(AttributeError):
        RngStream(1).seed = 2


# ---------------------------------------------------------------------------
# white noise
# ---------------------------------------------------------------------------

def test_awgn_per_entry_variance():
    noise = sample_awgn(64, 2.5, RngStream(3).generator(), count=5000)
    assert noise.shape == (5000, 64)
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(2.5, rel=0.02)


def test_awgn_variance_sequence_is_one_call_per_variance():
    sigma2 = (0.5, 1.0, 2.0)
    gen_a, gen_b = RngStream(4).generator(), RngStream(4).generator()
    joint = sample_awgn(16, sigma2, gen_a, count=7)
    assert joint.shape == (3, 7, 16)
    np.testing.assert_array_equal(
        joint, np.stack([sample_awgn(16, v, gen_b, count=7) for v in sigma2]))
    np.testing.assert_array_equal(gen_a.standard_normal(5), gen_b.standard_normal(5))


@pytest.mark.parametrize("variance", [2.5, (0.5, 1.0, 2.0)])
def test_awgn_equals_a_fresh_scaled_draw_per_part(variance):
    # the reference draws a fresh array per part and scales it out of place
    gen_a, gen_b = RngStream(6).generator(), RngStream(6).generator()
    noise = sample_awgn(32, variance, gen_a, count=300)
    ref = []
    for v in np.atleast_1d(variance):
        scale = np.sqrt(v / 2.0)
        part = np.empty((300, 32), dtype=complex)
        part.real = scale * gen_b.standard_normal((300, 32))
        part.imag = scale * gen_b.standard_normal((300, 32))
        ref.append(part)
    ref = np.stack(ref).reshape(noise.shape)
    assert np.array_equal(noise, ref)
    assert np.array_equal(gen_a.standard_normal(5), gen_b.standard_normal(5))


@pytest.mark.parametrize("variance", [0.0, -1.0, float("nan"), (1.0, float("nan"))])
def test_awgn_rejects_bad_variance(variance):
    with pytest.raises(DomainError):
        sample_awgn(8, variance, RngStream(0).generator(), count=1)
