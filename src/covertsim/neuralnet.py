"""Minimal dense network stack with hand-written reverse-mode gradients.

Everything is float64 and batched over the leading axis. The backward
pass is exact for the dropout masks sampled in the matching forward call,
which is what the finite-difference gate checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .numerics import DomainError, RngStream

_EPS_CLAMP = 1e-7

# Eval-mode batches run in blocks of _BLOCK rows, so each layer's
# activations stay cache-sized instead of spanning the whole batch. Block
# starts are multiples of 512, so every row falls in the same OpenBLAS GEMM
# row tile as in the whole-batch product and the results are bit-identical;
# unaligned blocks (255 or 1,023 rows) changed the last bits, and blocks of
# a few dozen rows take OpenBLAS's small-matrix path. 512 measured faster
# than 1,024 and 2,048 and about as fast as 256, further from that path.
_BLOCK = 512


class ShapeError(ValueError):
    """Raised on mismatched tensor shapes."""


class StateError(RuntimeError):
    """Raised when a backward pass has no matching forward cache."""


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "linear"
    dropout: float = 0.0

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise DomainError(f"layer dims must be positive, got {self.in_dim}x{self.out_dim}")
        if self.activation not in _ACTIVATIONS:
            raise DomainError(f"unknown activation {self.activation!r}")
        if not (0.0 <= self.dropout < 1.0):
            raise DomainError(f"dropout must be in [0,1), got {self.dropout}")


def _relu(a):
    return np.maximum(a, 0.0)


def _relu_grad(a, out):
    return (a > 0).astype(float)


def _leaky(a, slope=0.01):
    return np.maximum(a, slope * a)


def _leaky_grad(a, out, slope=0.01):
    return (a > 0) * (1.0 - slope) + slope


def _sigmoid(a):
    return 0.5 * (1.0 + np.tanh(0.5 * a))


def _sigmoid_grad(a, out):
    return out * (1.0 - out)


def _tanh(a):
    return np.tanh(a)


def _tanh_grad(a, out):
    return 1.0 - out ** 2


def _linear(a):
    return a


def _linear_grad(a, out):
    return np.ones_like(a)


_ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    "leaky-relu": (_leaky, _leaky_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "tanh": (_tanh, _tanh_grad),
    "linear": (_linear, _linear_grad),
}


def row_blocks(rows: int) -> list[slice]:
    """Slices tiling range(rows) in order, each starting at a multiple of
    _BLOCK; the last absorbs the remainder, so every block has at least
    _BLOCK rows, and fewer than 2 * _BLOCK rows make a single block."""
    bounds = [i * _BLOCK for i in range(max(rows // _BLOCK, 1))] + [rows]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


class DenseNet:
    """A stack of fully connected layers with per-layer activation/dropout.

    All parameters live in one float64 buffer ``params``, of which
    ``weights[i]``/``biases[i]`` are views. A (K, P) buffer runs K
    same-shaped nets as one, with a leading K axis on inputs and gradients.
    """

    def __init__(self, specs: list[LayerSpec], rng: RngStream | np.random.Generator | None = None,
                 params: np.ndarray | None = None):
        """Glorot-initialise a fresh buffer from rng, or view the given params."""
        for a, b in zip(specs, specs[1:]):
            if a.out_dim != b.in_dim:
                raise DomainError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")
        self.specs = list(specs)
        size = sum(s.out_dim * (s.in_dim + 1) for s in specs)
        if params is not None and params.shape[-1] != size:
            raise ShapeError(f"params length {params.shape[-1]} != param count {size}")
        self.params = np.zeros(size) if params is None else params
        self.weights, self.biases = self._views(self.params)
        if params is None:
            gen = rng.generator() if isinstance(rng, RngStream) else rng
            for spec, w in zip(specs, self.weights):
                bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
                w[...] = gen.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim))

    def _views(self, buf: np.ndarray):
        """Per-layer (weights, biases) views into a params-shaped buffer."""
        weights, biases = [], []
        lead, pos = buf.shape[:-1], 0
        for spec in self.specs:
            end = pos + spec.out_dim * spec.in_dim
            weights.append(buf[..., pos:end].reshape(*lead, spec.out_dim, spec.in_dim))
            biases.append(buf[..., end:end + spec.out_dim])
            pos = end + spec.out_dim
        return weights, biases

    @classmethod
    def stack(cls, nets: list["DenseNet"]) -> "DenseNet":
        """Copy same-shaped nets into the rows of one (K, P) stacked net."""
        if any(net.specs != nets[0].specs for net in nets):
            raise ShapeError("only nets with identical layer specs can be stacked")
        return cls(nets[0].specs, params=np.stack([net.params for net in nets]))

    def rows(self) -> list["DenseNet"]:
        """The K nets of a stacked net, each a view of its row of params."""
        return [DenseNet(self.specs, params=row) for row in self.params]

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None):
        """Run the net; returns (output, cache). cache is None in eval mode.

        train mode samples fresh dropout masks from rng and records the
        per-layer tensors needed by :meth:`backward`.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"input dim {x.shape[-1]} != expected {self.in_dim}")
        if train and rng is None and any(s.dropout > 0 for s in self.specs):
            raise StateError("train-mode forward with dropout needs an rng")
        if not train and x.shape[-2] >= 2 * _BLOCK:
            # rows are independent and nothing is cached: run row blocks
            return np.concatenate([self._layers(x[..., sl, :], False, None)[0]
                                   for sl in row_blocks(x.shape[-2])], axis=-2), None
        return self._layers(x, train, rng)

    def _layers(self, x: np.ndarray, train: bool, rng: np.random.Generator | None):
        cache = [] if train else None
        h = x
        for spec, w, b in zip(self.specs, self.weights, self.biases):
            pre = h @ np.swapaxes(w, -1, -2) + b[..., None, :]
            act, _ = _ACTIVATIONS[spec.activation]
            out = act(pre)
            mask = None
            if train and spec.dropout > 0:
                mask = (rng.random(out.shape) >= spec.dropout) / (1.0 - spec.dropout)
            if train:
                # out is cached pre-dropout; the mask is applied on the way out
                cache.append((h, pre, out, mask))
            h = out if mask is None else out * mask
        return h, cache

    def backward(self, cache, grad_out: np.ndarray, param_grads: bool = True):
        """Reverse-mode gradients for the cached forward pass.

        Returns (grads, grad_input): grads is a fresh buffer shaped like
        params holding each layer's (dW, db) summed over the batch, or None
        with ``param_grads=False``, and grad_input has the input shape.
        """
        if cache is None or len(cache) != len(self.specs):
            raise StateError("backward requires the cache of a matching train-mode forward")
        g = np.atleast_2d(np.asarray(grad_out, dtype=float))
        grads = np.empty_like(self.params) if param_grads else None
        grad_w, grad_b = self._views(grads) if param_grads else (None, None)
        for idx in range(len(self.specs) - 1, -1, -1):
            spec = self.specs[idx]
            h_in, pre, out, mask = cache[idx]
            if mask is not None:
                g = g * mask
            _, act_grad = _ACTIVATIONS[spec.activation]
            g_pre = g * act_grad(pre, out)
            if param_grads:
                np.matmul(np.swapaxes(g_pre, -1, -2), h_in, out=grad_w[idx])
                g_pre.sum(axis=-2, out=grad_b[idx])
            g = g_pre @ self.weights[idx]
        return grads, g

    # -- flat parameter views -------------------------------------------------

    def param_count(self) -> int:
        return self.params.size

    def get_flat(self) -> np.ndarray:
        return self.params.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.size != self.param_count():
            raise ShapeError(f"flat size {flat.size} != param count {self.param_count()}")
        self.params[...] = flat.reshape(self.params.shape)

    @staticmethod
    def grads_flat(grads) -> np.ndarray:
        """The flat gradient vector of a :meth:`backward` result (already flat)."""
        return grads

    def clip_weights(self, bound: float) -> None:
        """Project every parameter into [-bound, bound] (critic clipping)."""
        np.clip(self.params, -bound, bound, out=self.params)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Bias-corrected Adam over a flat (or (K, P) stacked) parameter buffer."""

    dim: int | tuple[int, ...]
    lr: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: np.ndarray = field(default=None)
    v: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.m is None:
            self.m = np.zeros(self.dim)
        if self.v is None:
            self.v = np.zeros(self.dim)

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Take one step on params in place."""
        if params.shape != grads.shape or params.shape != self.m.shape:
            raise ShapeError("params/grads shape mismatch with Adam state")
        self.step_count += 1
        # params -= lr * m_hat / (sqrt(v_hat) + eps), with the operations in
        # that order; two scratch buffers instead of a temporary per operation
        # halve the step time at these sizes
        step = np.multiply(grads, 1 - self.beta1)
        self.m *= self.beta1
        self.m += step
        denom = np.square(grads)
        denom *= 1 - self.beta2
        self.v *= self.beta2
        self.v += denom
        np.divide(self.m, 1 - self.beta1 ** self.step_count, out=step)
        step *= self.lr
        np.divide(self.v, 1 - self.beta2 ** self.step_count, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.epsilon
        step /= denom
        params -= step


def adam_step(state: AdamState, net: DenseNet, grads: np.ndarray) -> None:
    """Apply one Adam update to a net's parameters from a backward() gradient."""
    state.update(net.params, grads)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def bce_loss(pred: np.ndarray, label: np.ndarray):
    """Mean binary cross entropy with clamped predictions; returns (loss, dL/dpred)."""
    pred = np.asarray(pred, dtype=float)
    label = np.asarray(label, dtype=float)
    if pred.shape != label.shape:
        raise ShapeError(f"shape mismatch: pred {pred.shape} vs label {label.shape}")
    p = np.clip(pred, _EPS_CLAMP, 1.0 - _EPS_CLAMP)
    loss = float(np.mean(-(label * np.log(p) + (1 - label) * np.log(1 - p))))
    # a mean per leading index: stacked (K, B, 1) predictions are K losses
    grad = (-(label / p) + (1 - label) / (1 - p)) / np.prod(p.shape[-2:])
    grad = np.where((pred > _EPS_CLAMP) & (pred < 1 - _EPS_CLAMP), grad, 0.0)
    return loss, grad


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all elements; returns (loss, dL/dpred)."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    return float(np.mean(diff ** 2)), 2.0 * diff / diff.size


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 2


def save_checkpoint(path, nets: dict[str, DenseNet], seed: int, extra: dict | None = None):
    """Persist named nets as flat float64 arrays with a spec header."""
    header = {
        "version": CHECKPOINT_VERSION,
        "seed": int(seed),
        "extra": extra or {},
        "nets": {
            name: [[s.in_dim, s.out_dim, s.activation, s.dropout] for s in net.specs]
            for name, net in nets.items()
        },
    }
    arrays = {name: net.get_flat() for name, net in nets.items()}
    np.savez(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
             **arrays)


def load_checkpoint(path):
    """Load a checkpoint; returns (nets, header)."""
    with np.load(path) as data:
        header = json.loads(bytes(data["__header__"]).decode())
        if header.get("version") != CHECKPOINT_VERSION:
            raise StateError(f"unsupported checkpoint version {header.get('version')}")
        nets = {}
        for name, spec_rows in header["nets"].items():
            specs = [LayerSpec(int(r[0]), int(r[1]), r[2], float(r[3])) for r in spec_rows]
            nets[name] = DenseNet(specs, params=np.array(data[name], dtype=float))
    return nets, header
