"""Summarise or compare benchmark result files, workload by workload.

A result file is the JSON-lines file that ``run.py --out FILE`` appends
to, one record per run. From the repository root:

    python3 benchmarks/compare.py base.jsonl            # medians, quartiles, spread
    python3 benchmarks/compare.py base.jsonl new.jsonl  # and the change, per metric

End-to-end metrics (untraced runs) are shown with their median and
quartiles, their spread (quartile distance over median) and, with two
files, the change of the median against the bound in BENCHMARK.json.
Per-layer metrics (traced runs) are shown as self time per job, sorted by
how much it moved, so a later change shows where its saving landed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_by_metric(records, workload: str, trace: int) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for rec in records:
        if rec["workload"] == workload and rec["trace"] == trace:
            for name, metric in rec["result"]["metrics"].items():
                out.setdefault(name, []).append(metric["value"])
    return out


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(base, new, better: str, bound: float) -> str:
    """Compare medians in the metric's direction against its bound.

    A gain counts as ``better`` only when it exceeds the base's own spread
    or every new run beats every base run; a smaller move is noise.
    """
    _, b_med, _ = quartiles(base)
    _, n_med, _ = quartiles(new)
    change = (n_med - b_med) / b_med if b_med else 0.0
    worse = -change if better == "higher" else change
    if worse > bound:
        return "WORSE than bound"
    beats = min(new) > max(base) if better == "higher" else max(new) < min(base)
    if beats or -worse > spread(base):
        return "better"
    if spread(base) > bound:
        return "unresolved (spread > bound)"
    return "within bound"


def end_to_end_table(base, new, spec) -> None:
    metrics = {m["name"]: m for m in spec.get("end_to_end", [])}
    for workload in sorted({r["workload"] for r in base if r["trace"] == 0}):
        print(f"\n== {workload}: end to end")
        b_vals = values_by_metric(base, workload, 0)
        n_vals = values_by_metric(new, workload, 0) if new else {}
        for name, values in b_vals.items():
            m = metrics.get(name, {"unit": "?", "better": "lower", "bound": float("inf")})
            q1, med, q3 = quartiles(values)
            line = (f"  {name:18s} n={len(values):<3d} median {med:<12.6g} "
                    f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread(values):6.3f} "
                    f"(bound {m['bound']}, {m['better']} is better)")
            if name in n_vals:
                nq1, nmed, nq3 = quartiles(n_vals[name])
                change = (nmed - med) / med if med else 0.0
                line += (f"\n  {'':18s} n={len(n_vals[name]):<3d} median {nmed:<12.6g} "
                         f"q1 {nq1:<12.6g} q3 {nq3:<12.6g} change {100 * change:+6.2f}% "
                         f"-> {verdict(values, n_vals[name], m['better'], m['bound'])}")
            print(line)


def per_layer_table(base, new) -> None:
    for workload in sorted({r["workload"] for r in base if r["trace"] == 1}):
        b_vals = values_by_metric(base, workload, 1)
        n_vals = values_by_metric(new, workload, 1) if new else {}
        print(f"\n== {workload}: self time per traced job (s), median over runs")
        rows = []
        for name, values in b_vals.items():
            if not name.endswith(".self_s"):
                continue
            layer = name[:-len(".self_s")]
            b_med = quartiles(values)[1]
            calls = quartiles(b_vals[f"{layer}.calls"])[1]
            if name in n_vals:
                n_med = quartiles(n_vals[name])[1]
                n_calls = quartiles(n_vals[f"{layer}.calls"])[1]
                rows.append((abs(n_med - b_med), f"  {layer:30s} {b_med:9.4f} -> {n_med:9.4f} "
                             f"({n_med - b_med:+8.4f})  calls {calls:g} -> {n_calls:g}"))
            else:
                rows.append((b_med, f"  {layer:30s} {b_med:9.4f}  calls {calls:g}"))
        for _, text in sorted(rows, reverse=True):
            print(text)
        if "trace_overhead" in b_vals:
            after = (f" -> {quartiles(n_vals['trace_overhead'])[1]:.4f}"
                     if "trace_overhead" in n_vals else "")
            print(f"  trace_overhead {quartiles(b_vals['trace_overhead'])[1]:.4f}{after}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new", nargs="?")
    args = p.parse_args(argv)
    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    base = load(args.base)
    new = load(args.new) if args.new else None
    shas = {r["env"]["src_sha256"] for r in base}
    print(f"base: {len(base)} runs, sources {sorted(shas)}")
    if new:
        print(f"new:  {len(new)} runs, sources {sorted({r['env']['src_sha256'] for r in new})}")
    end_to_end_table(base, new, spec)
    per_layer_table(base, new)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
