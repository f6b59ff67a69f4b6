"""Tests for the dense network stack: activations, initialization,
finite-difference gradient oracles, dropout, Adam against a hand-computed
first step, K-stacked nets against K separate ones, row-blocked eval
forwards, the evaluation lane, losses and checkpoint round trips."""

import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertsim import cli
from covertsim.adversarial import GeneratorSpec, build_system, generate_signal
from covertsim.evaluation import evaluate_system
from covertsim.neuralnet import (
    _ACTIVATIONS,
    AdamState,
    DenseNet,
    Lane,
    LayerSpec,
    StateError,
    adam_step,
    bce_loss,
    load_checkpoint,
    _BLOCK,
    mse_loss,
    row_blocks,
    save_checkpoint,
)
from covertsim.numerics import DomainError, RngStream, sample_awgn, to_reim
from covertsim.scenarios import get_preset, make_scenario


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
    with pytest.raises(DomainError):
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


# the activations and their gradients as computed from the pre-activation,
# before the train-mode cache dropped it
_PRE_ACTIVATION_FORMULAS = {
    "relu": (lambda pre: np.maximum(pre, 0.0),
             lambda pre, out: (pre > 0).astype(float)),
    "leaky-relu": (lambda pre: np.maximum(pre, 0.01 * pre),
                   lambda pre, out: (pre > 0) * (1.0 - 0.01) + 0.01),
    "sigmoid": (lambda pre: 0.5 * (1.0 + np.tanh(0.5 * pre)),
                lambda pre, out: out * (1.0 - out)),
    "tanh": (np.tanh, lambda pre, out: 1.0 - out ** 2),
    "linear": (lambda pre: pre, lambda pre, out: np.ones_like(pre)),
}

_EDGE_VALUES = [0.0, -0.0, 1e-300, -1e-300, 1e3, -1e3, np.inf, -np.inf, np.nan]


@settings(max_examples=60, deadline=None)
@given(act=st.sampled_from(sorted(_ACTIVATIONS)),
       values=st.lists(st.one_of(st.sampled_from(_EDGE_VALUES), st.floats()),
                       min_size=4, max_size=24),
       dropout=st.sampled_from([0.0, 0.5]))
def test_output_based_gradients_equal_the_pre_activation_formulas(act, values, dropout):
    pre = np.array(values)
    act_fn, grad_fn = _ACTIVATIONS[act]
    old_act, old_grad = _PRE_ACTIVATION_FORMULAS[act]
    with np.errstate(all="ignore"):
        out = act_fn(pre.copy())
        assert np.array_equal(out, old_act(pre), equal_nan=True)
        assert np.array_equal(grad_fn(out), old_grad(pre, out), equal_nan=True)
        # the in-place activations write only into fresh matmul outputs
        net = DenseNet([LayerSpec(2, 2, act, dropout), LayerSpec(2, 2, act)], RngStream(0))
        net.params[...] = np.linspace(-1.0, 1.0, net.params.size)
        x = pre[:len(pre) // 2 * 2].reshape(-1, 2)
        x_before, params_before = x.copy(), net.params.copy()
        for train in (False, True):
            net.forward(x, train=train, rng=np.random.default_rng(0))
    assert np.array_equal(x, x_before, equal_nan=True)
    assert np.array_equal(net.params, params_before)


# ---------------------------------------------------------------------------
# what a train-mode forward keeps
# ---------------------------------------------------------------------------

def _traced_held(fn):
    """Bytes traced after fn returns, its result still held; numpy reports its
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 (held while the memory is read)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_train_mode_forward_keeps_inputs_outputs_and_boolean_masks():
    # per layer the input, the output and a one-byte dropout mask: the
    # pre-activation and a float mask took 7.9 kB per row of the generator's
    # train-mode signals and 9.3 kB per row of a K=3 warden stack's forward
    rows, gen = 2048, np.random.default_rng(0)
    scen = get_preset("urban")
    system = build_system(GeneratorSpec(), scen, RngStream(0))
    m, z = system.draw(gen, rows)
    held = _traced_held(lambda: generate_signal(system, m, z, train=True, rng=gen))
    assert held / rows <= 5500
    x = to_reim(sample_awgn(system.gen_spec.n, scen.warden_sigma2, gen, count=rows))
    assert x.shape == (scen.k, rows, system.wardens.in_dim)
    held = _traced_held(lambda: system.wardens.forward(x, train=True, rng=gen))
    assert held / rows <= 5000


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
    h_in, out, keep = cache[0]
    assert keep.dtype == bool
    assert 0.4 < np.mean(keep) < 0.6
    # the next layer's input is the output, kept units scaled by 1/(1-p)
    np.testing.assert_array_equal(out, 1.0)
    np.testing.assert_allclose(cache[1][0][keep], 2.0)
    np.testing.assert_array_equal(cache[1][0][~keep], 0.0)


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
    with pytest.raises(DomainError):
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
    with pytest.raises(DomainError):
        DenseNet.stack([_small_net(), DenseNet([LayerSpec(3, 2)], RngStream(0))])


def test_weights_are_views_of_params():
    net = _small_net()
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)
    flat = net.get_flat()
    flat[0] = 99.0
    assert net.params[0] != 99.0  # get_flat is a copy


# ---------------------------------------------------------------------------
# row blocks
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 5), st.sampled_from([None, 7, 4 * _BLOCK]))
def test_row_blocks_tile_the_rows_in_aligned_blocks(rows, size):
    # the default size is _BLOCK; the evaluation kernels' chunks are 4 * _BLOCK
    blocks = row_blocks(rows) if size is None else row_blocks(rows, size)
    size = size or _BLOCK
    assert [i for sl in blocks for i in range(rows)[sl]] == list(range(rows))
    assert all(sl.start % size == 0 for sl in blocks)
    if rows >= size:
        assert all(sl.stop - sl.start >= size for sl in blocks)
    if rows < 2 * size:
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
    # 1,700 rows make three blocks, the last with the 676-row remainder;
    # eval forwards run block by block, as the Monte Carlo kernels run them
    specs = [LayerSpec(10, 16, "relu", 0.3), LayerSpec(16, 16, "leaky-relu"),
             LayerSpec(16, 8, "tanh"), LayerSpec(8, 1, "sigmoid")]
    gen = np.random.default_rng(4)
    if k is None:
        net, x = DenseNet(specs, RngStream(1)), gen.standard_normal((1700, 10))
    else:
        net = DenseNet.stack([DenseNet(specs, RngStream(1, i)) for i in range(k)])
        x = gen.standard_normal((k, 1700, 10))
    assert len(row_blocks(1700)) == 3
    outs = []
    for sl in row_blocks(1700):
        out, cache = net.forward(x[..., sl, :])
        assert cache is None
        outs.append(out)
    out = np.concatenate(outs, axis=-2)
    assert out.shape == x.shape[:-1] + (1,)
    np.testing.assert_allclose(out, _whole_batch_reference(net, x), rtol=1e-12)


# ---------------------------------------------------------------------------
# the evaluation lane
# ---------------------------------------------------------------------------

def _fail(message):
    raise ValueError(message)


def test_lane_runs_one_step_at_a_time_in_order():
    done = []

    def step(i):
        time.sleep(0.01)
        done.append(i)

    with Lane() as lane:
        for i in range(5):
            lane.run(step, i)
            # run returned only after every earlier step finished
            assert done == list(range(i))
    assert done == list(range(5))


def test_lane_raises_a_failed_step_at_the_next_run():
    done = []
    with Lane() as lane:
        lane.run(_fail, "at run")
        with pytest.raises(ValueError, match="at run"):
            lane.run(done.append, 1)
        # the error is raised once, and the refused step never ran
        lane.wait()
    assert done == []


def test_lane_raises_a_failed_step_at_wait():
    with Lane() as lane:
        lane.run(_fail, "at wait")
        with pytest.raises(ValueError, match="at wait"):
            lane.wait()
        lane.wait()


def test_lane_raises_a_failed_step_at_exit():
    with pytest.raises(ValueError, match="at exit"):
        with Lane() as lane:
            lane.run(_fail, "at exit")


def test_lane_joins_its_thread_on_every_exit():
    start = threading.active_count()
    done = []

    def step():
        time.sleep(0.05)
        done.append(True)

    with Lane() as lane:
        lane.run(step)
        assert threading.active_count() == start + 1
    assert done == [True] and threading.active_count() == start
    # the caller's own error propagates after the step in flight finished
    with pytest.raises(KeyError):
        with Lane() as lane:
            lane.run(step)
            raise KeyError("caller")
    assert done == [True, True] and threading.active_count() == start
    with pytest.raises(KeyError):
        with Lane() as lane:
            lane.run(_fail, "hidden by the caller's error")
            time.sleep(0.01)
            raise KeyError("caller")
    assert threading.active_count() == start


def _tiny_report(seed):
    spec = GeneratorSpec(message_bits=4, noise_dim=4, n=8, power=4.0, hidden=(16, 16))
    system = build_system(spec, make_scenario(2), RngStream(0))
    return evaluate_system(system, 300, RngStream(seed))


def test_forked_sweep_workers_after_an_evaluation_match_this_process():
    # the evaluation's lane threads are joined, so forking after it is safe
    start = threading.active_count()
    here = [_tiny_report(seed) for seed in (0, 1)]
    assert threading.active_count() == start
    assert cli._map_seeds(_tiny_report, [0, 1]) == here


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
    with pytest.raises(DomainError):
        bce_loss(np.zeros((2, 1)), np.zeros((3, 1)))


def test_mse_shape_mismatch():
    # target broadcasts against pred, but the shapes must be equal
    for target in (np.zeros((3, 2)), np.zeros(2)):
        with pytest.raises(DomainError, match="shape mismatch"):
            mse_loss(np.zeros((3, 1)), target)


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


def test_densenet_refuses_params_of_the_wrong_length():
    specs = [LayerSpec(3, 4, "relu"), LayerSpec(4, 1, "sigmoid")]  # 16 + 5 parameters
    assert DenseNet(specs, params=np.zeros(21)).param_count() == 21
    assert DenseNet(specs, params=np.zeros((2, 21))).params.shape == (2, 21)
    for params in (np.zeros(20), np.zeros(22), np.zeros((2, 20))):
        with pytest.raises(DomainError, match=f"params length {params.shape[-1]} != param count 21"):
            DenseNet(specs, params=params)


def test_set_flat_size_check():
    net = _small_net()
    with pytest.raises(DomainError):
        net.set_flat(np.zeros(3))


def test_clip_weights():
    net = _small_net()
    net.weights[0][0, 0] = 5.0
    net.clip_weights(0.05)
    assert np.max(np.abs(net.get_flat())) <= 0.05


def test_checkpoint_roundtrip(tmp_path):
    net = _small_net(dropout=0.2, out_act="sigmoid")
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, {"gen": net}, extra={"note": "x"})
    nets, header = load_checkpoint(path)
    assert set(header) == {"version", "extra", "nets"}
    assert header["extra"] == {"note": "x"}
    restored = nets["gen"]
    assert restored.specs == net.specs
    np.testing.assert_array_equal(restored.get_flat(), net.get_flat())
    x = np.random.default_rng(0).standard_normal((3, 3))
    np.testing.assert_array_equal(restored.forward(x)[0], net.forward(x)[0])


def test_checkpoint_version_check(tmp_path):
    net = _small_net()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, {"gen": net})
    import json
    data = dict(np.load(path))
    header = json.loads(bytes(data["__header__"]).decode())

    def rewrite(**fields):
        data["__header__"] = np.frombuffer(json.dumps({**header, **fields}).encode(),
                                           dtype=np.uint8)
        np.savez(path, **data)

    # files written while the header still had a seed field load as before
    rewrite(seed=42)
    np.testing.assert_array_equal(load_checkpoint(path)[0]["gen"].params, net.params)
    rewrite(version=99)
    with pytest.raises(StateError):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", ["text", "empty", "no-header"])
def test_unreadable_checkpoint_is_a_state_error_naming_the_file(tmp_path, kind):
    path = tmp_path / "ckpt.npz"
    if kind == "no-header":
        np.savez(path, gen=_small_net().params)
    else:
        path.write_bytes(b"method,scenario\n" if kind == "text" else b"")
    with pytest.raises(StateError, match=f"^{re.escape(str(path))}: not a readable checkpoint"):
        load_checkpoint(path)


def test_missing_checkpoint_is_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent.npz")
