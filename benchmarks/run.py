"""Run one covertsim benchmark workload and print its metrics.

From the repository root:

    python3 benchmarks/run.py --workload train-urban --seed 0 --seconds 20 --trace 0

The run imports ``covertsim`` from ``src/`` under the current directory,
prepares the workload SETUP_REPEATS times, then repeats its job until
``--seconds`` are spent (at least MIN_JOBS times). Between jobs it times
the import again in IMPORT_REPEATS - 1 fresh interpreters. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run
alternates untraced and traced jobs so it can report its own overhead.
``--out FILE`` appends the full record (result, environment, per-job
figures) as one JSON line; ``compare.py`` reads such files.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Measured on a 2-core machine (see NOTES.md); set before numpy is imported.
BLAS_THREADS = 1
SETUP_REPEATS = 3
# import time varies by a third from one interpreter to the next and
# drifts over seconds, so setup_s takes the median of this many timings
IMPORT_REPEATS = 9
MIN_JOBS = 2
# the names of workloads.WORKLOADS, which cannot be imported before numpy is
WORKLOAD_NAMES = ("train-urban", "train-6g-dense", "eval-urban", "sweep-seeds")
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_iter_per_s": "1/s",
    "eval_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "csr_final": "fraction",
    "ber": "fraction",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record to this JSON-lines file")
    return p.parse_args(argv)


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def openblas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root / "src" / "covertsim"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": openblas_threads(np),
    }


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                "import covertsim.cli; print(time.perf_counter() - t)")


def import_probe() -> float:
    """Import time of ``covertsim.cli`` in a fresh interpreter (its start-up
    is not counted)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else float("nan")


def run_jobs(workload, state, workdir, seconds, trace, tracing, imports):
    """Repeat the job; with ``trace`` every second job is traced.

    Between jobs, import probes are added to ``imports`` in step with the
    time spent, so they sample the machine over the same stretch as the
    jobs do; probe time does not count against ``seconds``.

    Returns (records, absent): a list of (job, traced, layer times, counts,
    spans) and the hook targets that could not be found.
    """
    from workloads import Job

    records = []
    absent = []
    start = perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        installed = tracing.install(tracer) if traced else None
        try:
            if traced:
                with tracer.span("bench.job"):
                    job = workload.job(state, workdir)
            else:
                job = workload.job(state, workdir)
        except Exception:  # noqa: BLE001 - a raising job is a counted failure
            traceback.print_exc()
            job = Job(wall_s=float("nan"), problems=["job raised; traceback on stderr"])
        finally:
            if installed is not None:
                installed.restore()
                absent = installed.absent
        if job.outputs is not None:
            try:
                workload.check(state, job)
            except Exception:  # noqa: BLE001 - a check that cannot read outputs fails
                traceback.print_exc()
                job.problems.append("output check raised; traceback on stderr")
            job.outputs = None
        spans = tracer.spans if traced else None
        records.append((job, traced, tracing.layer_times(spans) if traced else None,
                        dict(tracer.counts) if traced else None, spans))
        elapsed = perf_counter() - start
        due = 1 + math.ceil((IMPORT_REPEATS - 1) * min(elapsed / seconds, 1.0))
        while len(imports) < due:
            t0 = perf_counter()
            imports.append(import_probe())
            start += perf_counter() - t0
        if len(records) < MIN_JOBS:
            continue
        typical = median(r[0].wall_s for r in records)
        if math.isnan(typical) or elapsed + 0.5 * typical >= seconds:
            return records, absent


def mark_nondeterminism(setups, jobs) -> None:
    """Each repeat at the run's seed must match the first one exactly."""
    for group in (setups, jobs):
        done = [x for x in group if x.fingerprint]
        for x in done[1:]:
            if x.fingerprint != done[0].fingerprint:
                x.problems.append("result differs from the first repeat at the same seed")


def end_to_end(imports, setups, jobs) -> dict:
    ok = [j for j in jobs if not math.isnan(j.wall_s)]
    trainers = [j for j in ok if j.train_iters] or [s for s in setups if s.train_iters]
    values = {
        "setup_s": median(imports) + median(s.prep_s for s in setups),
        "train_iter_per_s": median(x.train_iters / x.train_s for x in trainers),
        "eval_trials_per_s": median(j.eval_trials / j.eval_s for j in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "csr_final": median(j.csr for j in ok),
        "ber": median(j.ber for j in ok),
    }
    samples = {"setup_s": len(setups), "train_iter_per_s": len(trainers),
               "peak_rss_mb": 1}
    return {name: (values[name], END_TO_END_UNITS[name], samples.get(name, len(ok)))
            for name in END_TO_END_UNITS}


def per_layer(records, tracing) -> dict:
    traced = [r for r in records if r[1]]
    plain = [r for r in records if not r[1]]
    n = max(len(traced), 1)
    out = {}
    for hook in tracing.HOOKS:
        times = [r[2].get(hook.metric, tracing.LayerTime()) for r in traced]
        out[f"{hook.metric}.calls"] = (sum(t.calls for t in times) / n, "count", len(traced))
        out[f"{hook.metric}.self_s"] = (median(t.self_s for t in times), "s", len(traced))
        for key in hook.counts:
            name = f"{hook.metric}.{key}"
            out[name] = (sum(r[3].get(name, 0) for r in traced) / n,
                         "bytes" if key == "bytes" else "count", len(traced))
    out["cli.bytes_written"] = (median(r[0].bytes_written for r in records), "bytes",
                                len(records))
    overhead = median(r[0].wall_s for r in traced) / median(r[0].wall_s for r in plain)
    out["trace_overhead"] = (overhead, "ratio", len(traced))
    return out


def print_trace_report(records, tracing, absent) -> dict:
    """Print the self-time table and the train roll-up; return the roll-up."""
    traced = [r for r in records if r[1]]
    job_s = median(r[0].wall_s for r in traced)
    print(f"self time per traced job (median of {len(traced)}), job wall {job_s:.3f} s:")
    rows = []
    for name in {name for r in traced for name in r[2]}:
        rows.append((median(r[2][name].self_s if name in r[2] else 0.0 for r in traced), name))
    for self_s, name in sorted(rows, reverse=True):
        print(f"  {name:32s} {self_s:9.4f} s  {100 * self_s / job_s:5.1f}%")
    shares = [tracing.rollup(r[4]) for r in traced]
    shares = [s for s in shares if s is not None]
    rolled = {}
    if shares:
        print("cumulative share of adversarial.train (overlapping, like cProfile):")
        for label, _ in tracing.ROLLUP:
            rolled[label] = median(s[label] for s in shares)
            print(f"  {label:32s} {100 * rolled[label]:5.1f}%")
    else:
        print("no adversarial.train span in the traced jobs; no roll-up")
    for metric, module, attr in absent:
        print(f"absent: {metric} target {module}.{attr}")
    return rolled


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "covertsim"
    if not (package / "__init__.py").is_file():
        print("run.py: src/covertsim not found; run from the repository root",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    t0 = perf_counter()
    sys.path.insert(0, str(root / "src"))
    import covertsim.cli  # noqa: F401 - pulls in numpy, scipy and every layer
    imports = [perf_counter() - t0]
    if Path(covertsim.cli.__file__).resolve().parent != package.resolve():
        print(f"run.py: imported covertsim from {covertsim.cli.__file__}, not {package}",
              file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    env = environment(root)
    print("environment: " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload]
    workdir = root / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        setups = [workload.prepare(workdir, args.seed) for _ in range(SETUP_REPEATS)]
        records, absent = run_jobs(workload, setups[-1].state, workdir, args.seconds,
                                   bool(args.trace), tracing, imports)
        while len(imports) < IMPORT_REPEATS:
            imports.append(import_probe())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = [r[0] for r in records]
    mark_nondeterminism(setups, jobs)
    for i, s in enumerate(setups):
        print(f"setup {i}: {s.prep_s:.3f} s" + "".join(f"\n  FAIL {p}" for p in s.problems))
    for i, (job, traced, *_rest) in enumerate(records):
        print(f"job {i}{' traced' if traced else ''}: wall {job.wall_s:.3f} s, "
              f"csr {job.csr!r}, ber {job.ber!r}"
              + "".join(f"\n  FAIL {p}" for p in job.problems))
    if all(math.isnan(j.wall_s) for j in jobs):
        print("run.py: every job raised; no metrics", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "import_s": imports,
              "setups": [{"prep_s": s.prep_s, "train_iters": s.train_iters,
                          "train_s": s.train_s, "problems": s.problems} for s in setups],
              "jobs": [{"wall_s": j.wall_s, "traced": t, "train_s": j.train_s,
                        "eval_s": j.eval_s, "csr": j.csr, "ber": j.ber,
                        "problems": j.problems} for j, t, *_rest in records]}
    if args.trace:
        record["rollup"] = print_trace_report(records, tracing, absent)
        record["absent"] = [list(a) for a in absent]
        metrics = per_layer(records, tracing)
        absent_metrics = set(tracing.Installed([], absent).absent_metrics())
    else:
        metrics = end_to_end(imports, setups, jobs)
        absent_metrics = set()
    for name, (value, unit, n) in metrics.items():
        note = "  (absent)" if name.rsplit(".", 1)[0] in absent_metrics else ""
        print(f"{name:40s} {value:14.6g} {unit:8s} n={n}{note}")
    if not all(math.isfinite(value) for value, _, _ in metrics.values()):
        print("run.py: a metric could not be measured", file=sys.stderr)
        return 1

    failed = sum(bool(x.problems) for x in setups + jobs)
    result = {"correct": failed == 0, "attempted": len(setups) + len(jobs), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    if args.out:
        record["result"] = result
        record["samples"] = {name: n for name, (_, _, n) in metrics.items()}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
