"""Batch experiment front-end.

Subcommands: train, eval, sweep, baseline, report. Every artifact-writing
command drops a manifest with the fully resolved configuration and seeds
so the run can be reproduced exactly.

Exit codes: 0 success, 2 usage error, 3 config validation error,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation, scenarios
from .adversarial import (
    GeneratorSpec,
    System,
    TrainConfig,
    TrainLog,
    build_system,
    train,
)
from .neuralnet import DenseNet, StateError, load_checkpoint, save_checkpoint
from .numerics import DomainError, RngStream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


class ValidationError(ValueError):
    pass


def _finite(raw: str) -> float:
    """float(raw), refusing nan and inf, which no run can use."""
    if not np.isfinite(value := float(raw)):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


@dataclass
class RunConfig:
    """Everything a run needs, serializable to a sectioned key=value file."""

    scenario: str = "urban"
    k: int = 0                      # used only for scenario = custom
    sigma2: tuple[float, ...] = ()  # used only for scenario = custom
    rho: float = 0.5
    n_taps: int = 4

    message_bits: int = 8
    noise_dim: int = 16
    n: int = 32
    power_dbm: float = 10.0
    hidden: tuple[int, ...] = (64, 64, 64)
    dropout: float = 0.2

    iterations: int = 2000
    batch: int = 64
    lr: float = 1e-3
    mu: float = 1.0
    loss_mode: str = "standard"
    clip: float = 0.05
    disc_warmup: int = 100
    snapshot_every: int = 100
    snapshot_trials: int = 512
    train_snr_db: float = 20.0

    trials: int = 10000
    target_pf: float = 0.1
    eval_snr_db: float = 20.0

    seed: int = 0

    _SECTIONS = {
        "scenario": ("scenario", "k", "sigma2", "rho", "n_taps"),
        "generator": ("message_bits", "noise_dim", "n", "power_dbm", "hidden", "dropout"),
        "train": ("iterations", "batch", "lr", "mu", "loss_mode", "clip",
                  "disc_warmup", "snapshot_every", "snapshot_trials", "train_snr_db"),
        "eval": ("trials", "target_pf", "eval_snr_db"),
        "run": ("seed",),
    }

    @property
    def power_linear(self) -> float:
        return 10.0 ** (self.power_dbm / 10.0)

    def validate(self) -> None:
        """Raise ValidationError naming the first field the run cannot use."""
        for key, val in dataclasses.asdict(self).items():
            values = val if isinstance(val, tuple) else (val,)
            if not all(np.isfinite(v) for v in values if isinstance(v, float)):
                raise ValidationError(f"{key}: must be finite, got {val}")
        if self.scenario == "custom" and self.k < 1:
            raise ValidationError("K: custom scenarios need K >= 1")
        for section, build in (("scenario", self.scenario_preset),
                               ("generator", self.generator_spec),
                               ("train", self.train_config)):
            try:
                build()
            except DomainError as exc:
                raise ValidationError(f"[{section}] {exc}") from None
        if self.n % self.message_bits != 0:
            raise ValidationError("n: must be a multiple of message_bits")
        if self.n < self.n_taps:
            raise ValidationError(f"n: the slot must hold the n_taps = {self.n_taps} channel taps")
        if self.trials < 100:
            raise ValidationError("trials: the evaluator needs at least 100")

    def save(self, path) -> None:
        parser = configparser.ConfigParser()
        for section, keys in self._SECTIONS.items():
            parser[section] = {}
            for key in keys:
                val = getattr(self, key)
                if isinstance(val, tuple):
                    val = ",".join(str(v) for v in val)
                parser[section][key] = str(val)
        with open(path, "w") as fh:
            fh.write("# covertsim run configuration\n")
            parser.write(fh)

    @classmethod
    def load(cls, path) -> "RunConfig":
        """Read a config file; missing keys take defaults, unknown ones are refused."""
        # no header names "", so [DEFAULT] is refused like any unknown section
        parser = configparser.ConfigParser(default_section="")
        try:
            if not parser.read(path):
                raise FileNotFoundError(path)
            sections = {name: dict(parser[name]) for name in parser.sections()}
        except configparser.Error as exc:
            raise ValidationError(str(exc)) from None
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs = {}
        for section, items in sections.items():
            if section not in cls._SECTIONS:
                raise ValidationError(f"[{section}]: unknown section")
            for key, raw in items.items():
                if key not in cls._SECTIONS[section]:
                    raise ValidationError(f"{key}: unknown key in [{section}]")
                try:
                    kwargs[key] = cls._parse_field(raw.strip(), types[key])
                except ValueError as exc:
                    raise ValidationError(f"{key}: {exc}") from None
        return cls(**kwargs)

    @staticmethod
    def _parse_field(raw, typ):
        typ = str(typ)
        if typ.startswith("tuple["):
            # only a wholly empty value is (), as in ``sigma2 =``; an empty entry is refused
            item = _finite if typ.startswith("tuple[float") else int
            return tuple(item(v) for v in raw.split(",")) if raw else ()
        if typ == "int":
            return int(raw)
        if typ == "float":
            return _finite(raw)
        return raw

    # -- conversions to library objects --------------------------------------

    def scenario_preset(self) -> scenarios.ScenarioPreset:
        if self.scenario == "custom":
            return scenarios.make_scenario(self.k, list(self.sigma2) or None,
                                           rho=self.rho, n_taps=self.n_taps)
        preset = scenarios.get_preset(self.scenario)
        return dataclasses.replace(preset, rho=self.rho, n_taps=self.n_taps)

    def _section(self, name: str) -> dict:
        return {key: getattr(self, key) for key in self._SECTIONS[name]}

    def generator_spec(self) -> GeneratorSpec:
        fields = self._section("generator")
        del fields["power_dbm"]
        return GeneratorSpec(**fields, power=self.power_linear)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._section("train"), target_pf=self.target_pf)

    def digest(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:8]


def _write_manifest(out_dir: Path, cfg: RunConfig, command: str, seeds: list[int]):
    from . import __version__
    manifest = {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "power_linear": cfg.power_linear,
        "power_note": f"{cfg.power_dbm} dBm -> {cfg.power_linear:.6g} (linear, unit-referenced)",
        "seeds": seeds,
        "version": __version__,
        "config_digest": cfg.digest(),
    }
    path = out_dir / f"manifest_{command}_{cfg.digest()}.json"
    path.write_text(json.dumps(manifest, indent=2, default=str))
    return path


def _write_trainlog(path: Path, log) -> None:
    with open(path, "w") as fh:
        for row in log.rows():
            fh.write(json.dumps(row) + "\n")
        for snap in log.snapshots:
            fh.write(json.dumps({"snapshot": snap}) + "\n")


CSV_HEADER = ["method", "scenario", "K", "metric", "value", "stderr", "seed"]
# the metrics ``report`` summarises; rows of any other metric are skipped
REPORT_METRICS = ("mean_pd", "mean_pf", "mean_pd_lrt", "ber", "csr")


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def _report_rows(report, method: str):
    rows = []
    base = (method, report.scenario, len(report.per_warden))
    for i, w in enumerate(report.per_warden):
        rows.append([*base, f"pd_warden_{i}", w.pd,
                     evaluation._binom_se(w.pd, report.trials), report.seed])
        rows.append([*base, f"pf_warden_{i}", w.pf,
                     evaluation._binom_se(w.pf, report.trials), report.seed])
        rows.append([*base, f"pd_lrt_warden_{i}", w.pd_lrt, 0.0, report.seed])
    rows.append([*base, "mean_pd", report.mean_pd,
                 evaluation._binom_se(report.mean_pd, report.trials), report.seed])
    rows.append([*base, "mean_pf", report.mean_pf,
                 evaluation._binom_se(report.mean_pf, report.trials), report.seed])
    rows.append([*base, "mean_pd_lrt", report.mean_pd_lrt, 0.0, report.seed])
    rows.append([*base, "ber", report.ber, report.ber_stderr, report.seed])
    rows.append([*base, "csr", report.csr,
                 evaluation._binom_se(report.csr, report.trials), report.seed])
    rows.append([*base, "mean_signal_energy", report.mean_signal_energy, 0.0, report.seed])
    return rows


def _saved_config(header: dict) -> RunConfig:
    """The run config a checkpoint was trained with (lists back to tuples); a
    ValidationError unless the header holds exactly this version's fields."""
    extra, fields = header["extra"], {f.name for f in dataclasses.fields(RunConfig)}
    if set(extra) != fields:
        raise ValidationError(
            f"checkpoint holds no run config, only {sorted(extra)} (missing "
            f"{sorted(fields - set(extra))}, unknown {sorted(set(extra) - fields)}); "
            "evaluate it with --config")
    return RunConfig(**{key: tuple(val) if isinstance(val, list) else val
                        for key, val in extra.items()})


def _run_config(args, checkpoint=None) -> RunConfig:
    """The validated config of a run: ``--config``, else the loaded checkpoint's,
    with the ``--seed`` and ``--trials`` the subcommand has."""
    if args.config:
        cfg = RunConfig.load(args.config)
    else:
        cfg = _saved_config(checkpoint[1])
    for key in ("seed", "trials"):
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    cfg.validate()
    return cfg


def _nets(system: System) -> dict[str, DenseNet]:
    """A system's nets under their checkpoint names."""
    return {"generator": system.generator, "decoder": system.decoder,
            **{f"disc_{i}": disc for i, disc in enumerate(system.discriminators)}}


def _save(path: Path, system: System, extra: dict) -> None:
    """Write a system's checkpoint to path. np.savez appends .npz to any other
    name, and os.replace never shows a partial file under path."""
    tmp = path.with_suffix(f".{os.getpid()}.npz")
    try:
        save_checkpoint(tmp, _nets(system), extra=extra)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load_system(nets: dict[str, DenseNet], spec: GeneratorSpec,
                 scen: scenarios.ScenarioPreset, cfg: TrainConfig) -> System:
    """The system spec, scen and cfg describe, holding a checkpoint's nets;
    a ValidationError unless the nets are that system's."""
    system = build_system(spec, scen, RngStream(0), loss_mode=cfg.loss_mode,
                          train_snr_db=cfg.train_snr_db)

    def layers(named):
        # dropout acts only in training, so an eval config may change it
        return {name: [(s.in_dim, s.out_dim, s.activation) for s in net.specs]
                for name, net in named.items()}

    have, want = layers(nets), layers(_nets(system))
    if have.keys() != want.keys():
        raise ValidationError(
            f"checkpoint has nets {sorted(have)} but the config builds {sorted(want)}")
    for name in want:
        if have[name] != want[name]:
            raise ValidationError(f"checkpoint {name} layers do not match the config")
    system.generator, system.decoder = nets["generator"], nets["decoder"]
    system.wardens = DenseNet.stack([nets[f"disc_{i}"] for i in range(scen.k)])
    return system


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _run_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = RngStream(cfg.seed)
    system, log = train(cfg.train_config(), cfg.scenario_preset(), rng,
                        gen_spec=cfg.generator_spec())
    tag = f"{cfg.digest()}_s{cfg.seed}"
    _save(out_dir / f"ckpt_{tag}.npz", system, dataclasses.asdict(cfg))
    _write_trainlog(out_dir / f"trainlog_{tag}.jsonl", log)
    _write_manifest(out_dir, cfg, "train", [cfg.seed])
    print(f"trained {cfg.scenario} seed={cfg.seed} -> ckpt_{tag}.npz")
    return EXIT_OK


def cmd_eval(args) -> int:
    # a --config is validated before the checkpoint is read
    checkpoint = None if args.config else load_checkpoint(args.checkpoint)
    cfg = _run_config(args, checkpoint)
    nets, _ = checkpoint or load_checkpoint(args.checkpoint)
    system = _load_system(nets, cfg.generator_spec(), cfg.scenario_preset(), cfg.train_config())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = evaluation.evaluate_system(system, cfg.trials, RngStream(cfg.seed, 7),
                                        target_pf=cfg.target_pf, snr_db=cfg.eval_snr_db)
    path = out_dir / f"metrics_{cfg.digest()}_s{cfg.seed}.csv"
    _write_csv(path, _report_rows(report, "proposed"))
    _write_manifest(out_dir, cfg, "eval", [cfg.seed])
    if cfg.trials < 1000:
        print(f"warning: low-precision report (trials={cfg.trials})", file=sys.stderr)
    print(f"wrote {path}")
    return EXIT_OK


def _openblas(verb: str):
    """numpy's bundled OpenBLAS ``{verb}_num_threads`` function, or None
    where numpy bundles none (the lookup ``benchmarks/run.py`` uses)."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (f"scipy_openblas_{verb}_num_threads64_",
                    f"openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int] if verb == "set" else []
                fn.restype = None if verb == "set" else ctypes.c_int
                return fn
    return None


def _one_blas_thread() -> None:
    """Pool initializer. A forked worker inherits the parent's loaded
    OpenBLAS, which no longer reads OPENBLAS_NUM_THREADS; two workers at
    the default thread count would oversubscribe the CPUs several times."""
    set_threads = _openblas("set")
    if set_threads is not None:
        set_threads(1)


def _map_seeds(fn, seeds: list[int]) -> list:
    """[fn(seed) for seed in seeds], on one forked worker per available CPU
    (at most one per seed), each at one BLAS thread. Every seed has its own
    RngStream, so the results equal a run in this process; with one worker,
    or where fork is unavailable, it is one."""
    import multiprocessing

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(seeds), cpus or 1)
    # spawn would start an interpreter and import numpy and this package in
    # every worker, about 0.25 s each on a 2-CPU host (fork: under 0.01 s);
    # fork is safe here because OpenBLAS, the only other thread owner in
    # this process, shuts its thread pool down at fork (pthread_atfork)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(seed) for seed in seeds]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, seeds))


@functools.cache
def _source_digest() -> str:
    """sha256 of this package's source files."""
    files = sorted(Path(__file__).parent.glob("*.py"))
    return hashlib.sha256(b"".join(f.name.encode() + f.read_bytes() for f in files)).hexdigest()


def _training_key(cfg: TrainConfig, scen, rng: RngStream, spec: GeneratorSpec) -> dict:
    """Everything ``train`` reads, so a changed config or program gets a new key."""
    return {"train": dataclasses.asdict(cfg), "scenario": dataclasses.asdict(scen),
            "generator": dataclasses.asdict(spec), "rng": [rng.seed, rng.stream_id],
            "numpy": np.__version__, "source": _source_digest()}


def _cached_train(store: Path, cfg: TrainConfig, scen: scenarios.ScenarioPreset,
                  rng: RngStream, gen_spec: GeneratorSpec) -> tuple[System, TrainLog]:
    """``train``, kept as ``store/<sha256 of its key>.npz`` and loaded from there."""
    key = _training_key(cfg, scen, rng, gen_spec)
    path = store / f"{hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()}.npz"
    try:
        nets, header = load_checkpoint(path)
    except (OSError, StateError):
        # a missing or unreadable entry is trained again
        system, log = train(cfg, scen, rng, gen_spec=gen_spec)
        store.mkdir(parents=True, exist_ok=True)
        _save(path, system, {"key": key, "log": dataclasses.asdict(log)})
        return system, log
    return _load_system(nets, gen_spec, scen, cfg), TrainLog(**header["extra"]["log"])


def _prune_store(store: Path) -> None:
    """Delete each ``<sha256>.npz`` in store whose key names another source
    digest or numpy version, which no later key can match. Every other file
    stays, the ``<name>.<pid>.npz`` a concurrent ``_save`` writes included."""
    for path in store.glob("*.npz"):
        if not re.fullmatch("[0-9a-f]{64}", path.stem):
            continue
        try:
            key = load_checkpoint(path)[1]["extra"]["key"]
        except (OSError, StateError, KeyError, TypeError):
            continue
        if (key.get("source"), key.get("numpy")) != (_source_digest(), np.__version__):
            path.unlink(missing_ok=True)


def _sweep_rows(sweep: str, cfg: RunConfig, store: Path, seed: int) -> list[list]:
    """The CSV rows of one seed of a sweep, its trainings kept in store."""
    points = evaluation.run_sweeps(sweep, cfg.train_config(), RngStream(seed),
                                   gen_spec=cfg.generator_spec(),
                                   trials=min(cfg.trials, 2000),
                                   train_fn=functools.partial(_cached_train, store))
    return [[p.method, p.scenario, p.k, f"{p.metric}@{p.x:g}", p.value, p.stderr, p.seed]
            for p in points]


def _seed_list(text: str) -> list[int]:
    """Parse ``--seeds``: comma-separated integers."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def _alpha(text: str) -> float:
    """Parse ``--alpha``: a number in (0, 1]; argparse reports a ValueError too."""
    alpha = float(text)
    if not 0.0 < alpha <= 1.0:
        raise argparse.ArgumentTypeError(f"not a number in (0, 1]: {text!r}")
    return alpha


def cmd_sweep(args) -> int:
    cfg = _run_config(args)
    seeds = args.seeds or [cfg.seed]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _prune_store(out_dir / "trained")
    per_seed = _map_seeds(functools.partial(_sweep_rows, args.sweep, cfg, out_dir / "trained"),
                          seeds)
    rows = [row for seed_rows in per_seed for row in seed_rows]
    summary = []
    for method in sorted({r[0] for r in rows}):
        vals = [r[4] for r in rows if r[0] == method]
        summary.append([method, "summary", "", "mean_value",
                        float(np.mean(vals)), float(np.std(vals)), ""])
    if args.sweep == "csr-vs-epochs":
        csr = np.array([[r[4] for r in seed_rows] for seed_rows in per_seed])
        trend = "increasing" if csr.size and csr[:, -1].mean() > csr[:, 0].mean() else "flat"
        summary.append(["proposed", "summary", "", "csr_trend", trend, "", ""])
    path = out_dir / f"sweep_{args.sweep}_{cfg.digest()}.csv"
    _write_csv(path, rows + summary)
    _write_manifest(out_dir, cfg, f"sweep-{args.sweep}", seeds)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    cfg = _run_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scen = cfg.scenario_preset()
    spec = cfg.generator_spec()
    rng = RngStream(cfg.seed)
    rows = []
    if args.name == "noise-injection":
        tx = evaluation.NoiseInjectionTransmitter(args.alpha, spec)
        trials = cfg.trials
        pds = evaluation.noise_injection_pd_lrt(tx, scen, trials, rng.child(1), rng.child(2),
                                                target_pf=cfg.target_pf)
        ber = evaluation.noise_injection_ber(tx, scen, cfg.eval_snr_db, trials, rng.child(3))
        base = ("noise-injection", scen.name, scen.k)
        for i, pd in enumerate(pds):
            rows.append([*base, f"pd_lrt_warden_{i}", pd, 0.0, cfg.seed])
        rows.append([*base, "mean_pd_lrt", float(np.mean(pds)), 0.0, cfg.seed])
        rows.append([*base, "ber", ber,
                     evaluation._binom_se(ber, trials * spec.message_bits), cfg.seed])
    else:
        system, _ = evaluation.single_discriminator_baseline(
            cfg.train_config(), scen, rng, gen_spec=spec)
        report = evaluation.evaluate_system(system, cfg.trials, rng.child(7),
                                            target_pf=cfg.target_pf, snr_db=cfg.eval_snr_db)
        rows = _report_rows(report, "single-disc")
    path = out_dir / f"baseline_{args.name}_{cfg.digest()}_s{cfg.seed}.csv"
    _write_csv(path, rows)
    _write_manifest(out_dir, cfg, f"baseline-{args.name}", [cfg.seed])
    print(f"wrote {path}")
    return EXIT_OK


def cmd_report(args) -> int:
    summary = {}
    for path in args.csv:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            print(f"{path}: not UTF-8 text: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != CSV_HEADER:
            print(f"{path}: unexpected header {header}", file=sys.stderr)
            return EXIT_VALIDATION
        for row in reader:
            try:
                method, scen, k, metric, value, _, _ = row
                if metric in REPORT_METRICS:
                    summary.setdefault((scen, method, k), {}).setdefault(
                        metric, []).append(float(value))
            except ValueError as exc:
                print(f"{path}, line {reader.line_num}: malformed row: {exc}", file=sys.stderr)
                return EXIT_VALIDATION
    out = Path(args.out) / "summary.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "method", "K", *REPORT_METRICS, "n_runs"])
        for (scen, method, k), metrics in sorted(summary.items()):
            n_runs = max(len(v) for v in metrics.values())
            writer.writerow([scen, method, k, *(f"{np.mean(metrics[m]):.6g}" if m in metrics
                                                else "" for m in REPORT_METRICS), n_runs])
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="covertsim",
                                     description="Multi-warden covert communication simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a system from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--config")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a named experiment sweep")
    p.add_argument("sweep", choices=evaluation.SWEEP_NAMES)
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=_seed_list)
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("baseline", help="run a named baseline through the eval path")
    p.add_argument("name", choices=("noise-injection", "single-disc"))
    p.add_argument("--config", required=True)
    p.add_argument("--alpha", type=_alpha, default=0.5)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("report", help="merge metric CSVs into a summary table")
    p.add_argument("csv", nargs="+")
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
