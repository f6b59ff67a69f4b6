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
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, scenarios
from .adversarial import (
    ConfigError,
    GeneratorSpec,
    System,
    TrainConfig,
    build_system,
    train,
)
from .neuralnet import DenseNet, load_checkpoint, save_checkpoint
from .numerics import DomainError, RngStream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


class ValidationError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything a run needs, serializable to a sectioned key=value file."""

    scenario: str = "urban"
    k: int = 0                      # used only for scenario = custom
    sigma2: tuple[float, ...] = ()  # used only for scenario = custom
    rho: float = 0.5
    doppler_hz: float = 10.0
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
        "scenario": ("scenario", "k", "sigma2", "rho", "doppler_hz", "n_taps"),
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
        if self.scenario == "custom" and self.k < 1:
            raise ValidationError("K: custom scenarios need K >= 1")
        for section, build in (("scenario", self.scenario_preset),
                               ("generator", self.generator_spec),
                               ("train", self.train_config)):
            try:
                build()
            except (DomainError, ConfigError) as exc:
                raise ValidationError(f"[{section}] {exc}") from None
        if self.n % self.message_bits != 0:
            raise ValidationError("n: must be a multiple of message_bits")
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
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise FileNotFoundError(path)
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs = {}
        for section in parser.sections():
            if section not in cls._SECTIONS:
                raise ValidationError(f"[{section}]: unknown section")
            for key, raw in parser[section].items():
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
        if typ.startswith("tuple[float"):
            return tuple(float(v) for v in raw.split(",") if v.strip())
        if typ.startswith("tuple[int"):
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if typ == "int":
            return int(raw)
        if typ == "float":
            return float(raw)
        return raw

    # -- conversions to library objects --------------------------------------

    def scenario_preset(self) -> scenarios.ScenarioPreset:
        if self.scenario == "custom":
            return scenarios.make_scenario(self.k, list(self.sigma2) or None,
                                           rho=self.rho, doppler_hz=self.doppler_hz,
                                           n_taps=self.n_taps)
        preset = scenarios.get_preset(self.scenario)
        return dataclasses.replace(preset, rho=self.rho, doppler_hz=self.doppler_hz,
                                   n_taps=self.n_taps)

    def generator_spec(self) -> GeneratorSpec:
        return GeneratorSpec(message_bits=self.message_bits, noise_dim=self.noise_dim,
                             n=self.n, power=self.power_linear,
                             hidden=self.hidden, dropout=self.dropout)

    def train_config(self) -> TrainConfig:
        return TrainConfig(iterations=self.iterations, batch=self.batch, lr=self.lr,
                           mu=self.mu, loss_mode=self.loss_mode, clip=self.clip,
                           disc_warmup=self.disc_warmup,
                           snapshot_every=self.snapshot_every,
                           snapshot_trials=self.snapshot_trials,
                           train_snr_db=self.train_snr_db, target_pf=self.target_pf)

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
    rows.append([*base, "ber", report.ber, report.extras.get("ber_stderr", 0.0), report.seed])
    rows.append([*base, "csr", report.csr,
                 evaluation._binom_se(report.csr, report.trials), report.seed])
    rows.append([*base, "mean_signal_energy", report.mean_signal_energy, 0.0, report.seed])
    return rows


def _saved_config(header: dict) -> RunConfig:
    """The run config a checkpoint was trained with (lists back to tuples)."""
    return RunConfig(**{key: tuple(val) if isinstance(val, list) else val
                        for key, val in header["extra"].items()})


def _system_from_checkpoint(path, cfg: RunConfig | None = None) -> System:
    """Rebuild a trained system; cfg (default: the one saved with it) sets
    the scenario and generator shape, while the saved config always sets the
    loss mode and Bob's training SNR the nets were trained for."""
    nets, header = load_checkpoint(path)
    saved = _saved_config(header)
    if cfg is None:
        cfg = saved
    scen = cfg.scenario_preset()
    spec = cfg.generator_spec()
    k = sum(1 for name in nets if name.startswith("disc_"))
    if k != scen.k:
        raise ValidationError(
            f"checkpoint has {k} discriminators but scenario {scen.name!r} has {scen.k} wardens")
    system = build_system(spec, scen, RngStream(0), loss_mode=saved.loss_mode,
                          train_snr_db=saved.train_snr_db)
    if system.generator.param_count() != nets["generator"].param_count():
        raise ValidationError("checkpoint generator shape does not match the config")
    system.generator = nets["generator"]
    system.decoder = nets["decoder"]
    system.wardens = DenseNet.stack([nets[f"disc_{i}"] for i in range(k)])
    return system


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = RngStream(cfg.seed)
    system, log = train(cfg.train_config(), cfg.scenario_preset(), rng,
                        gen_spec=cfg.generator_spec())
    tag = f"{cfg.digest()}_s{cfg.seed}"
    nets = {"generator": system.generator, "decoder": system.decoder}
    for i, disc in enumerate(system.discriminators):
        nets[f"disc_{i}"] = disc
    save_checkpoint(out_dir / f"ckpt_{tag}.npz", nets, cfg.seed, extra=dataclasses.asdict(cfg))
    _write_trainlog(out_dir / f"trainlog_{tag}.jsonl", log)
    _write_manifest(out_dir, cfg, "train", [cfg.seed])
    print(f"trained {cfg.scenario} seed={cfg.seed} -> ckpt_{tag}.npz")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.config:
        cfg = RunConfig.load(args.config)
    else:
        cfg = _saved_config(load_checkpoint(args.checkpoint)[1])
    if args.seed is not None:
        cfg.seed = args.seed
    if args.trials is not None:
        cfg.trials = args.trials
    cfg.validate()
    system = _system_from_checkpoint(args.checkpoint, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = evaluation.evaluate_system(system, cfg.trials, RngStream(cfg.seed, 7),
                                        target_pf=cfg.target_pf, snr_db=cfg.eval_snr_db)
    rows = _report_rows(report, "proposed")
    path = out_dir / f"metrics_{cfg.digest()}_s{cfg.seed}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
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
    # spawn would re-import numpy and scipy in every worker, about 0.4 s each;
    # fork is safe here because OpenBLAS, the only other thread owner in
    # this process, shuts its thread pool down at fork (pthread_atfork)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(seed) for seed in seeds]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, seeds))


def _sweep_rows(sweep: str, cfg: RunConfig, seed: int) -> list[list]:
    """The CSV rows of one seed of a sweep."""
    points = evaluation.run_sweeps(sweep, cfg.train_config(), RngStream(seed),
                                   gen_spec=cfg.generator_spec(),
                                   trials=min(cfg.trials, 2000))
    return [[p.method, p.scenario, p.k, f"{p.metric}@{p.x:g}", p.value, p.stderr, p.seed]
            for p in points]


def cmd_sweep(args) -> int:
    cfg = RunConfig.load(args.config)
    cfg.validate()
    if args.sweep not in evaluation.SWEEP_NAMES:
        print(f"unknown sweep {args.sweep!r}; valid: {', '.join(evaluation.SWEEP_NAMES)}",
              file=sys.stderr)
        return EXIT_USAGE
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [cfg.seed]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    per_seed = _map_seeds(functools.partial(_sweep_rows, args.sweep, cfg), seeds)
    all_rows = [row for rows in per_seed for row in rows]
    path = out_dir / f"sweep_{args.sweep}_{cfg.digest()}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(all_rows)
        for method in sorted({r[0] for r in all_rows}):
            vals = [r[4] for r in all_rows if r[0] == method]
            writer.writerow([method, "summary", "", "mean_value",
                             float(np.mean(vals)), float(np.std(vals)), ""])
        if args.sweep == "csr-vs-epochs":
            csr_vals = [r[4] for r in all_rows if r[3].startswith("csr")]
            trend = "increasing" if csr_vals and csr_vals[-1] > csr_vals[0] else "flat"
            writer.writerow(["proposed", "summary", "", "csr_trend", trend, "", ""])
    _write_manifest(out_dir, cfg, f"sweep-{args.sweep}", seeds)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    cfg = RunConfig.load(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
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
    elif args.name == "single-disc":
        system, _ = evaluation.single_discriminator_baseline(
            cfg.train_config(), scen, rng, gen_spec=spec)
        report = evaluation.evaluate_system(system, cfg.trials, rng.child(7),
                                            target_pf=cfg.target_pf, snr_db=cfg.eval_snr_db)
        rows = _report_rows(report, "single-disc")
    else:
        print(f"unknown baseline {args.name!r}; valid: noise-injection, single-disc",
              file=sys.stderr)
        return EXIT_USAGE
    path = out_dir / f"baseline_{args.name}_{cfg.digest()}_s{cfg.seed}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    _write_manifest(out_dir, cfg, f"baseline-{args.name}", [cfg.seed])
    print(f"wrote {path}")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = []
    for path in args.csv:
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                print(f"{path}: unexpected header {header}", file=sys.stderr)
                return EXIT_VALIDATION
            rows.extend(reader)
    summary = {}
    for method, scen, k, metric, value, _, _ in rows:
        if metric in ("mean_pd", "mean_pf", "mean_pd_lrt", "ber", "csr"):
            summary.setdefault((scen, method, k), {}).setdefault(metric, []).append(float(value))
    out = Path(args.out) / "summary.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "method", "K", "mean_pd", "mean_pf",
                         "mean_pd_lrt", "ber", "csr", "n_runs"])
        for (scen, method, k), metrics in sorted(summary.items()):
            n_runs = max(len(v) for v in metrics.values())
            writer.writerow([scen, method, k] +
                            [f"{np.mean(metrics[m]):.6g}" if m in metrics else ""
                             for m in ("mean_pd", "mean_pf", "mean_pd_lrt", "ber", "csr")] +
                            [n_runs])
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
    p.add_argument("sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds")
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("baseline", help="run a named baseline through the eval path")
    p.add_argument("name")
    p.add_argument("--config", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
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
