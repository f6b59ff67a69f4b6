"""Tests for the dense network stack: activations, initialization,
finite-difference gradient oracles, dropout, Adam against a hand-computed
first step, K-stacked nets against K separate ones, row-blocked eval
forwards, losses and checkpoint round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertsim.neuralnet import (
    AdamState,
    DenseNet,
    LayerSpec,
    ShapeError,
    StateError,
    adam_step,
    bce_loss,
    load_checkpoint,
    _BLOCK,
    mse_loss,
    row_blocks,
    save_checkpoint,
)
from covertsim.numerics import DomainError, RngStream


def _small_net(dropout=0.0, out_act="linear"):
    return DenseNet([LayerSpec(3, 8, "relu", dropout),
                     LayerSpec(8, 6, "leaky-relu"),
                     LayerSpec(6, 2, out_act)], RngStream(0))


# ---------------------------------------------------------------------------
# construction and layer specs
# ---------------------------------------------------------------------------

def test_layer_spec_validation():
    with pytest.raises(DomainError):
        LayerSpec(0, 4)
    with pytest.raises(DomainError):
        LayerSpec(4, 4, "swish")
    with pytest.raises(DomainError):
        LayerSpec(4, 4, "relu", 1.0)


def test_dims_must_chain():
    with pytest.raises(DomainError):
        DenseNet([LayerSpec(3, 4), LayerSpec(5, 2)], RngStream(0))


def test_glorot_uniform_bound():
    net = DenseNet([LayerSpec(100, 50)], RngStream(1))
    bound = np.sqrt(6.0 / 150)
    w = net.weights[0]
    assert np.max(np.abs(w)) <= bound
    assert np.max(np.abs(w)) > 0.8 * bound  # actually fills the range
    np.testing.assert_array_equal(net.biases[0], 0.0)


def test_forward_shape_check():
    net = _small_net()
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 4)))


def test_forward_eval_has_no_cache():
    net = _small_net()
    out, cache = net.forward(np.zeros((2, 3)))
    assert out.shape == (2, 2)
    assert cache is None


# ---------------------------------------------------------------------------
# activations (hand values through one-layer nets)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("act,x,expected", [
    ("relu", -2.0, 0.0),
    ("relu", 3.0, 3.0),
    ("leaky-relu", -2.0, -0.02),
    ("sigmoid", 0.0, 0.5),
    ("tanh", 0.0, 0.0),
    ("linear", -7.0, -7.0),
])
def test_activation_hand_values(act, x, expected):
    net = DenseNet([LayerSpec(1, 1, act)], RngStream(0))
    net.weights[0][:] = 1.0
    net.biases[0][:] = 0.0
    out, _ = net.forward(np.array([[x]]))
    assert out[0, 0] == pytest.approx(expected)


def test_sigmoid_saturation_is_stable():
    net = DenseNet([LayerSpec(1, 1, "sigmoid")], RngStream(0))
    net.weights[0][:] = 1.0
    out, _ = net.forward(np.array([[-1000.0], [1000.0]]))
    np.testing.assert_allclose(out[:, 0], [0.0, 1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# gradients against central finite differences
# ---------------------------------------------------------------------------

def _fd_check(net, x, n_params=60, eps=1e-6):
    gen = np.random.default_rng(9)
    target = gen.standard_normal((x.shape[0], net.out_dim))

    def loss_value():
        out, _ = net.forward(x)
        return mse_loss(out, target)[0]

    out, cache = net.forward(x, train=True)
    _, gpred = mse_loss(out, target)
    grads, _ = net.backward(cache, gpred)
    flat_grad = DenseNet.grads_flat(grads)
    flat = net.get_flat()
    idx = gen.choice(flat.size, size=min(n_params, flat.size), replace=False)
    worst = 0.0
    for j in idx:
        for sign, store in ((1, "hi"), (-1, "lo")):
            pert = flat.copy()
            pert[j] += sign * eps
            net.set_flat(pert)
            if sign == 1:
                hi = loss_value()
            else:
                lo = loss_value()
        net.set_flat(flat)
        fd = (hi - lo) / (2 * eps)
        denom = max(abs(fd), abs(flat_grad[j]), 1e-8)
        worst = max(worst, abs(fd - flat_grad[j]) / denom)
    return worst


def test_backward_matches_finite_differences():
    net = _small_net()
    x = np.random.default_rng(2).standard_normal((5, 3))
    assert _fd_check(net, x) < 1e-4


def test_backward_matches_finite_differences_sigmoid_head():
    net = _small_net(out_act="sigmoid")
    x = np.random.default_rng(3).standard_normal((5, 3))
    assert _fd_check(net, x) < 1e-4


def test_backward_input_gradient_finite_differences():
    net = _small_net(out_act="tanh")
    gen = np.random.default_rng(4)
    x = gen.standard_normal((1, 3))
    target = gen.standard_normal((1, 2))
    out, cache = net.forward(x, train=True)
    _, gpred = mse_loss(out, target)
    _, gin = net.backward(cache, gpred)
    eps = 1e-6
    for j in range(3):
        hi = x.copy(); hi[0, j] += eps
        lo = x.copy(); lo[0, j] -= eps
        fd = (mse_loss(net.forward(hi)[0], target)[0]
              - mse_loss(net.forward(lo)[0], target)[0]) / (2 * eps)
        assert gin[0, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_backward_requires_train_cache():
    net = _small_net()
    with pytest.raises(StateError):
        net.backward(None, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_eval_mode_is_identity():
    net = _small_net(dropout=0.5)
    x = np.ones((4, 3))
    a, _ = net.forward(x)
    b, _ = net.forward(x)
    np.testing.assert_array_equal(a, b)


def test_dropout_train_mode_masks_and_scales():
    net = DenseNet([LayerSpec(1, 1000, "linear", 0.5),
                    LayerSpec(1000, 1, "linear")], RngStream(5))
    net.weights[0][:] = 1.0
    gen = np.random.default_rng(0)
    _, cache = net.forward(np.ones((1, 1)), train=True, rng=gen)
    h, pre, out, mask = cache[0]
    kept = mask > 0
    assert 0.4 < np.mean(kept) < 0.6
    np.testing.assert_allclose(mask[kept], 2.0)  # inverted scaling 1/(1-p)


def test_dropout_train_mode_needs_rng():
    net = _small_net(dropout=0.5)
    with pytest.raises(StateError):
        net.forward(np.ones((1, 3)), train=True)


def test_dropout_backward_consistent_with_mask():
    # the same forward's mask must gate the backward pass: finite
    # differences through a replayed forward (same rng state) must match
    net = DenseNet([LayerSpec(2, 16, "relu", 0.3), LayerSpec(16, 1, "linear")],
                   RngStream(6))
    x = np.random.default_rng(1).standard_normal((3, 2))
    target = np.zeros((3, 1))

    def loss_with_seed(flat):
        net.set_flat(flat)
        out, _ = net.forward(x, train=True, rng=np.random.default_rng(77))
        return mse_loss(out, target)[0]

    flat = net.get_flat()
    out, cache = net.forward(x, train=True, rng=np.random.default_rng(77))
    _, gpred = mse_loss(out, target)
    grads, _ = net.backward(cache, gpred)
    flat_grad = DenseNet.grads_flat(grads)
    eps = 1e-6
    for j in np.random.default_rng(2).choice(flat.size, size=20, replace=False):
        hi = flat.copy(); hi[j] += eps
        lo = flat.copy(); lo[j] -= eps
        fd = (loss_with_seed(hi) - loss_with_seed(lo)) / (2 * eps)
        net.set_flat(flat)
        assert flat_grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-9)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_first_step_hand_value():
    # bias-corrected first step is -lr * g / (|g| + eps) regardless of betas
    adam = AdamState(3, lr=1e-3, beta1=0.5, beta2=0.999)
    params = np.zeros(3)
    grads = np.array([1.0, -2.0, 0.5])
    adam.update(params, grads)
    expected = -1e-3 * grads / (np.abs(grads) + 1e-8)
    np.testing.assert_allclose(params, expected, rtol=1e-6)


def test_adam_descends_quadratic():
    adam = AdamState(1, lr=0.1, beta1=0.5)
    x = np.array([5.0])
    for _ in range(200):
        adam.update(x, 2 * x)
    assert abs(x[0]) < 0.5


def test_adam_shape_check():
    adam = AdamState(3)
    with pytest.raises(ShapeError):
        adam.update(np.zeros(4), np.zeros(4))


def test_adam_step_applies_to_net():
    net = _small_net()
    before = net.get_flat()
    x = np.ones((2, 3))
    out, cache = net.forward(x, train=True)
    grads, _ = net.backward(cache, np.ones_like(out))
    adam_step(AdamState(net.param_count(), lr=1e-3), net, grads)
    after = net.get_flat()
    assert not np.allclose(before, after)
    nonzero = DenseNet.grads_flat(grads) != 0
    assert np.max(np.abs(after - before)[nonzero]) <= 1e-3 + 1e-9


def _adam_reference(params, grads_seq, lr=1e-3, beta1=0.5, beta2=0.999, eps=1e-8):
    """Out-of-place textbook Adam, one fresh array per step."""
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t, g in enumerate(grads_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g ** 2
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_in_place_adam_matches_out_of_place(k, steps, seed):
    gen = np.random.default_rng(seed)
    net = DenseNet.stack([_small_net() for _ in range(k)])
    start = gen.standard_normal(net.params.shape)
    net.set_flat(start)
    grads_seq = [gen.standard_normal(net.params.shape) * 10.0 ** gen.integers(-6, 3)
                 for _ in range(steps)]
    adam = AdamState(net.params.shape, lr=1e-3)
    copy = AdamState(net.params.shape, lr=1e-3)
    stepped = start.copy()
    for g in grads_seq:
        adam_step(adam, net, g)
        copy.update(stepped, g)
    np.testing.assert_array_equal(net.params, stepped)
    np.testing.assert_array_equal(net.params, _adam_reference(start, grads_seq))
    # the (K, P) stack steps each row exactly as its own Adam would
    for i in range(k):
        np.testing.assert_array_equal(
            net.params[i], _adam_reference(start[i], [g[i] for g in grads_seq]))


# ---------------------------------------------------------------------------
# K-stacked nets
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 5), batch=st.integers(1, 12),
       hidden=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       acts=st.lists(st.sampled_from(["relu", "leaky-relu", "sigmoid", "tanh", "linear"]),
                     min_size=4, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_net_matches_separate_nets(k, batch, hidden, acts, seed):
    dims = [5, *hidden, 2]
    specs = [LayerSpec(a, b, act) for a, b, act in zip(dims, dims[1:], acts)]
    nets = [DenseNet(specs, RngStream(seed, i)) for i in range(k)]
    stacked = DenseNet.stack(nets)
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((k, batch, 5))
    g_out = gen.standard_normal((k, batch, 2))
    out, cache = stacked.forward(x, train=True)
    grads, g_in = stacked.backward(cache, g_out)
    assert grads.shape == stacked.params.shape
    no_grads, input_only = stacked.backward(cache, g_out, param_grads=False)
    assert no_grads is None
    np.testing.assert_array_equal(input_only, g_in)
    for i, (net, row) in enumerate(zip(nets, stacked.rows())):
        np.testing.assert_array_equal(row.params, net.params)
        ref, ref_cache = net.forward(x[i], train=True)
        ref_grads, ref_g_in = net.backward(ref_cache, g_out[i])
        np.testing.assert_array_equal(out[i], ref)
        np.testing.assert_array_equal(stacked.forward(x)[0][i], net.forward(x[i])[0])
        np.testing.assert_array_equal(grads[i], ref_grads)
        np.testing.assert_array_equal(g_in[i], ref_g_in)


def test_stacked_rows_share_the_stack_buffer():
    stacked = DenseNet.stack([_small_net(), _small_net(out_act="linear")])
    row = stacked.rows()[1]
    row.weights[0][0, 0] = 7.0
    row.set_flat(row.get_flat() * 2.0)
    assert stacked.weights[0][1, 0, 0] == 14.0
    stacked.clip_weights(0.5)
    assert row.weights[0][0, 0] == 0.5
    with pytest.raises(ShapeError):
        DenseNet.stack([_small_net(), DenseNet([LayerSpec(3, 2)], RngStream(0))])


def test_weights_are_views_of_params():
    net = _small_net()
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)
    flat = net.get_flat()
    flat[0] = 99.0
    assert net.params[0] != 99.0  # get_flat is a copy


# ---------------------------------------------------------------------------
# row-blocked eval forwards
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 5))
def test_row_blocks_tile_the_rows_in_aligned_blocks(rows):
    blocks = row_blocks(rows)
    assert [i for sl in blocks for i in range(rows)[sl]] == list(range(rows))
    assert all(sl.start % _BLOCK == 0 for sl in blocks)
    if rows >= _BLOCK:
        assert all(sl.stop - sl.start >= _BLOCK for sl in blocks)
    if rows < 2 * _BLOCK:
        assert len(blocks) == 1


_REFERENCE_ACTS = {
    "relu": lambda a: np.maximum(a, 0.0),
    "leaky-relu": lambda a: np.where(a > 0, a, 0.01 * a),
    "sigmoid": lambda a: 1.0 / (1.0 + np.exp(-a)),
    "tanh": np.tanh,
    "linear": lambda a: a,
}


def _whole_batch_reference(net, x):
    h = x
    for spec, w, b in zip(net.specs, net.weights, net.biases):
        h = _REFERENCE_ACTS[spec.activation](h @ np.swapaxes(w, -1, -2) + b[..., None, :])
    return h


@pytest.mark.parametrize("k", [None, 3])
def test_blocked_eval_forward_matches_whole_batch_reference(k):
    # 1,700 rows make three blocks, the last with the 164-row remainder
    specs = [LayerSpec(10, 16, "relu", 0.3), LayerSpec(16, 16, "leaky-relu"),
             LayerSpec(16, 8, "tanh"), LayerSpec(8, 1, "sigmoid")]
    gen = np.random.default_rng(4)
    if k is None:
        net, x = DenseNet(specs, RngStream(1)), gen.standard_normal((1700, 10))
    else:
        net = DenseNet.stack([DenseNet(specs, RngStream(1, i)) for i in range(k)])
        x = gen.standard_normal((k, 1700, 10))
    assert len(row_blocks(1700)) == 3
    out, cache = net.forward(x)
    assert cache is None
    np.testing.assert_allclose(out, _whole_batch_reference(net, x), rtol=1e-12)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_bce_hand_value():
    loss, grad = bce_loss(np.array([[0.8]]), np.array([[1.0]]))
    assert loss == pytest.approx(-np.log(0.8))
    assert grad[0, 0] == pytest.approx(-1.0 / 0.8)


def test_bce_symmetric_labels():
    loss0, _ = bce_loss(np.array([[0.3]]), np.array([[0.0]]))
    loss1, _ = bce_loss(np.array([[0.7]]), np.array([[1.0]]))
    assert loss0 == pytest.approx(loss1)


def test_bce_clamps_extreme_predictions():
    loss, grad = bce_loss(np.array([[0.0]]), np.array([[1.0]]))
    assert np.isfinite(loss)
    assert grad[0, 0] == 0.0  # no gradient outside the clamp


def test_bce_shape_mismatch():
    with pytest.raises(ShapeError):
        bce_loss(np.zeros((2, 1)), np.zeros((3, 1)))


def test_mse_hand_value():
    loss, grad = mse_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
    assert loss == pytest.approx(2.5)
    np.testing.assert_allclose(grad, [[1.0, 2.0]])


# ---------------------------------------------------------------------------
# flat views and checkpoints
# ---------------------------------------------------------------------------

def test_flat_roundtrip():
    net = _small_net()
    flat = net.get_flat()
    assert flat.size == net.param_count()
    other = _small_net(out_act="linear")
    other.set_flat(flat)
    np.testing.assert_array_equal(other.get_flat(), flat)


def test_set_flat_size_check():
    net = _small_net()
    with pytest.raises(ShapeError):
        net.set_flat(np.zeros(3))


def test_clip_weights():
    net = _small_net()
    net.weights[0][0, 0] = 5.0
    net.clip_weights(0.05)
    assert np.max(np.abs(net.get_flat())) <= 0.05


def test_checkpoint_roundtrip(tmp_path):
    net = _small_net(dropout=0.2, out_act="sigmoid")
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, {"gen": net}, seed=42, extra={"note": "x"})
    nets, header = load_checkpoint(path)
    assert header["seed"] == 42
    assert header["extra"] == {"note": "x"}
    restored = nets["gen"]
    assert restored.specs == net.specs
    np.testing.assert_array_equal(restored.get_flat(), net.get_flat())
    x = np.random.default_rng(0).standard_normal((3, 3))
    np.testing.assert_array_equal(restored.forward(x)[0], net.forward(x)[0])


def test_checkpoint_version_check(tmp_path):
    net = _small_net()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, {"gen": net}, seed=0)
    import json
    data = dict(np.load(path))
    header = json.loads(bytes(data["__header__"]).decode())
    header["version"] = 99
    data["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, **data)
    with pytest.raises(StateError):
        load_checkpoint(path)
