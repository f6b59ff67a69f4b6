"""Tests of the benchmark's tracing, hook table and result comparison."""

import sys
import types

import pytest

import compare
import tracing


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6]
    spans = [("a", 0.0, 10.0, -1, True), ("b", 1.0, 4.0, 0, True),
             ("c", 2.0, 3.0, 1, True), ("b", 5.0, 6.0, 0, True)]
    times = tracing.layer_times(spans)
    assert times["a"].self_s == pytest.approx(6.0)
    assert times["b"].self_s == pytest.approx(3.0)
    assert times["b"].calls == 2
    assert times["c"].self_s == pytest.approx(1.0)
    assert sum(t.self_s for t in times.values()) == pytest.approx(10.0)


def test_rollup_is_inclusive_share_of_root():
    spans = [("adversarial.train", 0.0, 10.0, -1, True),
             ("adversarial.disc_update", 1.0, 5.0, 0, True),
             ("neuralnet.adam", 2.0, 3.0, 1, True),
             ("neuralnet.adam", 6.0, 8.0, 0, True),
             ("neuralnet.adam", 6.5, 7.0, 3, False),   # recursion: counted once
             ("neuralnet.adam", 20.0, 21.0, -1, True)]  # outside train: ignored
    shares = tracing.rollup(spans)
    assert shares["disc updates"] == pytest.approx(0.4)
    assert shares["Adam"] == pytest.approx(0.3)
    assert shares["snapshots"] == 0.0
    assert tracing.rollup(spans[5:]) is None


def test_measured_spans_nest_and_sum():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2)
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    with tracer.span("root"):
        assert outer(3) == 12
    times = tracing.layer_times(tracer.spans)
    assert times["inner"].calls == 2 and times["outer"].calls == 1
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    root_s = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(t.self_s for t in times.values()) == pytest.approx(root_s)


def test_wrapper_returns_results_and_raises_unchanged():
    tracer = tracing.Tracer()
    marker = object()
    assert tracer.wrap("f", lambda: marker)() is marker

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("g", boom)()
    name, start, end, _, _ = tracer.spans[-1]
    assert name == "g" and end >= start
    assert tracer._stack == []  # the raising call closed its span


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def double(x):
        return 2 * x

    class Net:
        def forward(self, x):
            return [x] * x

        @staticmethod
        def helper(x):
            return x + 1

    mod.double, mod.Net = double, Net
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_hooks_wrap_count_and_restore(fake_module):
    originals = (fake_module.double, vars(fake_module.Net)["forward"],
                 vars(fake_module.Net)["helper"])
    hooks = (tracing.Hook("layer.double", (("fake_layer", "double"),)),
             tracing.Hook("layer.net",
                          (("fake_layer", "Net.forward"), ("fake_layer", "Net.helper")),
                          ((("fake_layer", "Net.forward"), lambda a, k, r: {"rows": len(r)}),),
                          ("rows",)))
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, hooks)
    assert fake_module.double is not originals[0]
    assert fake_module.double(4) == 8
    assert fake_module.Net().forward(3) == [3, 3, 3]
    assert fake_module.Net.helper(1) == 2
    installed.restore()
    assert (fake_module.double, vars(fake_module.Net)["forward"],
            vars(fake_module.Net)["helper"]) == originals
    times = tracing.layer_times(tracer.spans)
    assert times["layer.double"].calls == 1 and times["layer.net"].calls == 2
    assert tracer.counts == {"layer.net.rows": 3}
    assert installed.absent == [] and installed.absent_metrics(hooks) == []


def test_absent_targets_are_reported_not_raised(fake_module):
    hooks = (tracing.Hook("layer.gone", (("fake_layer", "renamed"), ("no_such_module", "f"))),
             tracing.Hook("layer.half", (("fake_layer", "double"), ("fake_layer", "Net.gone"))))
    installed = tracing.install(tracing.Tracer(), hooks)
    installed.restore()
    assert ("layer.gone", "fake_layer", "renamed") in installed.absent
    assert ("layer.gone", "no_such_module", "f") in installed.absent
    assert ("layer.half", "fake_layer", "Net.gone") in installed.absent
    assert installed.absent_metrics(hooks) == ["layer.gone"]


def test_duplicate_target_is_rejected_before_patching(fake_module):
    hooks = (tracing.Hook("a", (("fake_layer", "double"),)),
             tracing.Hook("b", (("fake_layer", "double"),)))
    original = fake_module.double
    with pytest.raises(ValueError):
        tracing.install(tracing.Tracer(), hooks)
    assert fake_module.double is original


def test_real_hook_table_installs_fully_and_restores():
    import covertsim.cli  # noqa: F401 - imports every hooked module

    targets = [t for hook in tracing.HOOKS for t in hook.targets]
    before = [tracing._resolve(*t)[2] for t in targets]
    installed = tracing.install(tracing.Tracer())
    assert installed.absent == []
    assert len(installed.patched) == len(targets)
    installed.restore()
    assert [tracing._resolve(*t)[2] for t in targets] == before


def test_quartiles_match_statistics_and_single_values():
    assert compare.quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, med, q3 = compare.quartiles([1.0, 2.0, 3.0, 4.0])
    assert med == 2.5 and q1 < med < q3


def test_verdict_directions():
    base = [100.0, 101.0, 99.0, 100.0]
    assert compare.verdict(base, [80.0] * 4, "higher", 0.1) == "WORSE than bound"
    assert compare.verdict(base, [95.0] * 4, "higher", 0.1) == "within bound"
    assert compare.verdict(base, [80.0] * 4, "lower", 0.1) == "better"
    # a gain inside the base's spread (0.015) is not called better
    assert compare.verdict(base, [99.5] * 4, "lower", 0.1) == "within bound"
    assert compare.verdict(base, [98.5] * 4, "lower", 0.1) == "better"
    noisy = [60.0, 100.0, 140.0, 100.0]
    assert compare.verdict(noisy, [105.0] * 4, "higher", 0.1) == "unresolved (spread > bound)"
    assert compare.verdict(noisy, [150.0] * 4, "higher", 0.1) == "better"
