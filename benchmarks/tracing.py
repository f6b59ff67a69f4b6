"""Outside-in span tracing for the covertsim benchmark.

The hook table below is data: each per-layer metric names the
``(module, attribute)`` targets whose calls it times. ``install`` wraps
every target that exists, ``Installed.restore`` puts the originals back,
and a target that a refactor deleted or renamed is reported as absent
instead of failing. Nothing in ``src/`` is changed.

A span is ``(name, start, end, parent, outermost)``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``outermost`` is false
when a span of the same name is already open, so the roll-up's inclusive
times do not count recursion twice. A layer's self time is its span durations minus
the time covered by its direct children. The program is one thread, so
children never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


def _forward_rows(args, kwargs, result) -> dict:
    return {"rows": len(result[0])}


def _path_arg(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[0]


def _saved_bytes(args, kwargs, result) -> dict:
    path = os.fspath(_path_arg(args, kwargs))
    if not path.endswith(".npz"):  # np.savez appends the suffix
        path += ".npz"
    return {"bytes": os.path.getsize(path)}


def _loaded_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_path_arg(args, kwargs))}


Counter = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Hook:
    """One per-layer metric: the targets it wraps and optional counters.

    ``counters`` maps a target to a function of (args, kwargs, result)
    that returns extra counts; their keys are listed in ``counts`` and
    reported as ``<metric>.<key>``.
    """

    metric: str
    targets: tuple[tuple[str, str], ...]
    counters: tuple[tuple[tuple[str, str], Counter], ...] = ()
    counts: tuple[str, ...] = ()


_A, _E, _C, _N = ("covertsim.adversarial", "covertsim.evaluation",
                  "covertsim.channel", "covertsim.numerics")
_NN, _D, _CLI = "covertsim.neuralnet", "covertsim.detection", "covertsim.cli"

# Functions imported by name are wrapped in every module that binds them,
# since patching the defining module alone does not reach those callers.
HOOKS: tuple[Hook, ...] = (
    Hook("channel.propagate",
         ((_C, "propagate"), (_A, "propagate"), (_E, "propagate"), (_D, "propagate"))),
    Hook("channel.propagate_adjoint",
         ((_C, "propagate_adjoint"), (_A, "propagate_adjoint"))),
    Hook("channel.sample",
         ((_A, "sample_warden_taps"), (_A, "sample_bob_taps"), (_A, "_cgn"),
          (_E, "sample_warden_taps"), (_E, "sample_bob_taps"), (_E, "_cgn"),
          (_C, "sample_taps"), (_D, "sample_taps"),
          (_N, "sample_awgn"), (_C, "sample_awgn"), (_D, "sample_awgn"))),
    Hook("numerics.reim",
         ((_N, "to_reim"), (_N, "from_reim"), (_A, "to_reim"), (_A, "from_reim"),
          (_E, "to_reim"))),
    Hook("neuralnet.forward", ((_NN, "DenseNet.forward"),),
         (((_NN, "DenseNet.forward"), _forward_rows),), ("rows",)),
    Hook("neuralnet.backward", ((_NN, "DenseNet.backward"),)),
    Hook("neuralnet.adam", ((_NN, "adam_step"), (_A, "adam_step"))),
    Hook("neuralnet.checkpoint",
         ((_NN, "save_checkpoint"), (_NN, "load_checkpoint"),
          (_CLI, "save_checkpoint"), (_CLI, "load_checkpoint")),
         (((_NN, "save_checkpoint"), _saved_bytes), ((_CLI, "save_checkpoint"), _saved_bytes),
          ((_NN, "load_checkpoint"), _loaded_bytes), ((_CLI, "load_checkpoint"), _loaded_bytes)),
         ("bytes",)),
    Hook("detection.pd_lrt", ((_D, "pd_at_target_pf"), (_E, "pd_at_target_pf"))),
    Hook("adversarial.disc_update", ((_A, "_disc_update"),)),
    Hook("adversarial.generator_loss", ((_A, "generator_loss"),)),
    Hook("adversarial.generate_signal", ((_A, "generate_signal"), (_E, "generate_signal"))),
    Hook("adversarial.snapshot", ((_A, "snapshot_metrics"),)),
    Hook("adversarial.train", ((_A, "train"), (_E, "train"), (_CLI, "train"))),
    Hook("evaluation.measure_detection", ((_E, "measure_detection"),)),
    Hook("evaluation.measure_ber", ((_E, "measure_ber"),)),
    Hook("cli.main", ((_CLI, "main"),)),
)

# Cumulative (inclusive) shares of adversarial.train, overlapping the way
# cProfile's cumulative column does: disc updates include their Adam steps.
ROLLUP = (
    ("disc updates", "adversarial.disc_update"),
    ("generator_loss", "adversarial.generator_loss"),
    ("sampling", "channel.sample"),
    ("Adam", "neuralnet.adam"),
    ("snapshots", "adversarial.snapshot"),
)


class Tracer:
    """Records spans and counts in memory; one instance per traced job."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outermost = not self._open.get(name)
        self._open[name] = self._open.get(name, 0) + 1
        self.spans.append((name, 0.0, 0.0, parent, outermost))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, start: float, end: float) -> None:
        name, _, _, parent, outermost = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, outermost)
        self._stack.pop()
        self._open[name] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(idx, start, perf_counter())

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx, start, perf_counter())
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    key = f"{name}.{key}"
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper


def _resolve(module_name: str, attr_path: str):
    """Return (owner, attribute, raw value) or None when the target is absent."""
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr]
        return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


@dataclass
class Installed:
    """Wrapped targets with their originals, and the targets found absent."""

    patched: list
    absent: list[tuple[str, str, str]]

    def restore(self) -> None:
        for owner, attr, raw, own in reversed(self.patched):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self.patched = []

    def absent_metrics(self, hooks=HOOKS) -> list[str]:
        """Metrics none of whose targets exist."""
        missing = {(mod, attr) for _, mod, attr in self.absent}
        return [h.metric for h in hooks if all(t in missing for t in h.targets)]


def install(tracer: Tracer, hooks=HOOKS) -> Installed:
    """Wrap every present target of every hook; see ``Installed.restore``."""
    seen = set()
    for hook in hooks:
        for target in hook.targets:
            if target in seen:
                raise ValueError(f"target {target} listed twice in the hook table")
            seen.add(target)
    installed = Installed([], [])
    try:
        for hook in hooks:
            counters = dict(hook.counters)
            for module_name, attr_path in hook.targets:
                found = _resolve(module_name, attr_path)
                if found is None:
                    installed.absent.append((hook.metric, module_name, attr_path))
                    continue
                owner, attr, raw = found
                own = not isinstance(owner, type) or attr in vars(owner)
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                wrapper = tracer.wrap(hook.metric, fn,
                                      counters.get((module_name, attr_path)))
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapper = type(raw)(wrapper)
                setattr(owner, attr, wrapper)
                installed.patched.append((owner, attr, raw, own))
    except BaseException:
        installed.restore()
        raise
    return installed


@dataclass
class LayerTime:
    calls: int = 0
    self_s: float = 0.0


def layer_times(spans) -> dict[str, LayerTime]:
    """Per-name call count and self time."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, LayerTime] = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        lt = out.setdefault(name, LayerTime())
        lt.calls += 1
        lt.self_s += (end - start) - covered[idx]
    return out


def rollup(spans, root: str = "adversarial.train", parts=ROLLUP) -> dict[str, float] | None:
    """Inclusive time of each part inside ``root`` spans, as a share of ``root``.

    Returns None when no ``root`` span was recorded.
    """
    inside = [False] * len(spans)
    root_s = 0.0
    part_s = {label: 0.0 for label, _ in parts}
    label_of = {metric: label for label, metric in parts}
    for idx, (name, start, end, parent, outermost) in enumerate(spans):
        if parent >= 0:
            inside[idx] = inside[parent] or spans[parent][0] == root
        if not outermost:
            continue
        if name == root:
            root_s += end - start
        elif name in label_of and inside[idx]:
            part_s[label_of[name]] += end - start
    if root_s <= 0:
        return None
    return {label: s / root_s for label, s in part_s.items()}

