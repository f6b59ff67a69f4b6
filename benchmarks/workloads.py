"""The four benchmark workloads: set-up, one timed job, and output checks.

Each workload is prepared several times (``prepare``) so set-up time can
be reported as a median; then its job (``job``) is repeated until the
run's time is spent. ``job`` does only the program's work, so a traced
job records no benchmark code. ``check`` then reads the outputs, fills in
the quality figures and the fingerprint, and lists every problem found;
it runs untimed and untraced. Every job of a run uses the run's seed, so
each repeat must reproduce the first one bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from covertsim import adversarial, cli, evaluation, neuralnet, scenarios
from covertsim.numerics import RngStream

CHECK_ROWS = 2048    # signal rows emitted per energy check
ENERGY_SLACK = 1e-9  # every row must satisfy energy <= P (1 + slack)


@dataclass
class Setup:
    """One preparation: its time, any training it did, and its checks."""

    state: dict
    prep_s: float
    train_iters: int = 0
    train_s: float = 0.0
    fingerprint: str = ""
    problems: list[str] = field(default_factory=list)


@dataclass
class Job:
    """One timed job. ``check`` fills the fields after ``outputs``."""

    wall_s: float
    train_iters: int = 0
    train_s: float = 0.0
    eval_trials: int = 0
    eval_s: float = 0.0
    outputs: object = None
    csr: float = float("nan")
    ber: float = float("nan")
    bytes_written: int = 0
    fingerprint: str = ""
    problems: list[str] = field(default_factory=list)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _check_ber(label: str, ber: float) -> list[str]:
    return [] if 0.0 <= ber <= 0.5 else [f"{label}: ber {ber!r} outside [0, 0.5]"]


def _check_pf(label: str, pfs, target_pf: float, calib: int) -> list[str]:
    if not pfs:
        return [f"{label}: no learned pf reported"]
    # a quantile threshold on `calib` samples lands within a sample or two
    return [f"{label}: pf {pf!r} is not at target {target_pf} (calibration set {calib})"
            for pf in pfs if abs(pf - target_pf) > 2.0 / calib]


def _check_finite(label: str, values) -> list[str]:
    ok = np.all(np.isfinite(np.asarray(values, dtype=float)))
    return [] if ok else [f"{label}: non-finite logged loss"]


def _check_energy(system, seed: int) -> list[str]:
    """Emit CHECK_ROWS signals in eval and in train mode; each row must meet the budget."""
    gen = RngStream(seed, 0xC4EC).generator()
    spec = system.gen_spec
    m = np.sign(gen.standard_normal((CHECK_ROWS, spec.message_bits)) + 1e-12)
    z = gen.standard_normal((CHECK_ROWS, spec.noise_dim))
    problems = []
    for train in (False, True):
        s, _ = adversarial.generate_signal(system, m, z, train=train, rng=gen)
        worst = float(np.max(np.sum(np.abs(s) ** 2, axis=1)))
        if not worst <= spec.power * (1 + ENERGY_SLACK):
            problems.append(f"signal energy {worst!r} exceeds power {spec.power} (train={train})")
    return problems


def _exit_codes(job: Job, command: str) -> list[str]:
    codes = job.outputs["codes"]
    return [f"covertsim {command} exited with {codes}"] if any(codes) else []


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TrainWorkload:
    """``adversarial.train`` at the acceptance shape, then ``evaluate_system``.

    The acceptance shape: K wardens of the preset, N=32, batch 64, 100
    warm-up and 400 iterations with 5 snapshots. CSR and BER are those of
    the trained system from ``evaluate_system`` (10,000 trials), whose
    sampling noise is under a quarter of a 512-trial snapshot's.
    """

    iterations = 400
    eval_trials = 10_000

    def __init__(self, preset: str):
        self.preset = preset

    def prepare(self, workdir: Path, seed: int) -> Setup:
        t0 = perf_counter()
        cfg = adversarial.TrainConfig(iterations=self.iterations, batch=64, disc_warmup=100,
                                      snapshot_every=100, snapshot_trials=512)
        state = {"cfg": cfg, "scenario": scenarios.get_preset(self.preset), "seed": seed}
        return Setup(state, prep_s=perf_counter() - t0)

    def job(self, state: dict, workdir: Path) -> Job:
        cfg, seed = state["cfg"], state["seed"]
        t0 = perf_counter()
        system, log = adversarial.train(cfg, state["scenario"], RngStream(seed))
        t1 = perf_counter()
        report = evaluation.evaluate_system(system, self.eval_trials, RngStream(seed, 7),
                                            target_pf=cfg.target_pf)
        t2 = perf_counter()
        return Job(wall_s=t2 - t0, train_iters=cfg.iterations, train_s=t1 - t0,
                   eval_trials=self.eval_trials, eval_s=t2 - t1,
                   outputs={"system": system, "log": log, "report": report})

    def check(self, state: dict, job: Job) -> None:
        cfg = state["cfg"]
        system, log, report = (job.outputs[k] for k in ("system", "log", "report"))
        losses = {"gen_loss": log.gen_loss, "covert_loss": log.covert_loss,
                  "decode_mse": log.decode_mse, "covert_metric": log.covert_metric,
                  "disc_loss": log.disc_loss}
        job.csr, job.ber = report.csr, report.ber
        job.fingerprint = _digest(*(np.asarray(v, dtype=float) for v in losses.values()),
                                  [(s["csr"], s["ber"], s["pd_learned"]) for s in log.snapshots],
                                  report.csr, report.ber,
                                  [(w.pd, w.pf, w.pd_lrt) for w in report.per_warden])
        problems = []
        for name, values in losses.items():
            problems += _check_finite(name, values)
        for snap in log.snapshots:
            problems += _check_pf(f"snapshot {snap['iteration']}", snap["pf_learned"],
                                  cfg.target_pf, 2000)
        # the iteration-0 snapshot decodes with an untrained decoder, whose
        # BER sits at 0.5 give or take sampling noise; check trained BER only
        problems += _check_ber("final snapshot", log.snapshots[-1]["ber"])
        problems += _check_ber("evaluate_system", report.ber)
        problems += _check_pf("evaluate_system", [w.pf for w in report.per_warden],
                              cfg.target_pf, max(self.eval_trials, 10_000))
        problems += _check_energy(system, state["seed"])
        job.problems = problems


class EvalWorkload:
    """``covertsim eval`` on an urban checkpoint trained during set-up.

    The checkpoint is a fixture trained at CHECKPOINT_SEED in every run;
    the run's seed drives the evaluation's Monte Carlo draws. CSR and BER
    here then move with the evaluation code, not with how well a short
    training run happened to go at the run's seed.
    """

    CHECKPOINT_SEED = 0
    train_iterations = 200
    trials = 20_000

    def prepare(self, workdir: Path, seed: int) -> Setup:
        t0 = perf_counter()
        out = _fresh_dir(workdir / "setup")
        cfg = cli.RunConfig(scenario="urban", iterations=self.train_iterations,
                            disc_warmup=50, snapshot_every=0, trials=self.trials,
                            seed=self.CHECKPOINT_SEED)
        cfg_path = out / "run.cfg"
        cfg.save(cfg_path)
        t1 = perf_counter()
        code = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
        t2 = perf_counter()
        if code != 0:
            raise RuntimeError(f"covertsim train exited with {code} during set-up")
        ckpt, = out.glob("ckpt_*.npz")
        trainlog, = out.glob("trainlog_*.jsonl")
        with open(trainlog) as fh:
            rows = [json.loads(line) for line in fh]
        losses = [[r["gen_loss"], r["covert_loss"], r["decode_mse"], *r["disc_loss"]]
                  for r in rows if "gen_loss" in r]
        nets, _ = neuralnet.load_checkpoint(ckpt)
        system = adversarial.build_system(cfg.generator_spec(), cfg.scenario_preset(),
                                          RngStream(0), train_snr_db=cfg.train_snr_db)
        system.generator = nets["generator"]
        # keep the checkpoint outside the directory the next set-up clears
        kept = _fresh_dir(workdir / "ckpt")
        shutil.copyfile(ckpt, kept / ckpt.name)
        shutil.copyfile(cfg_path, kept / "run.cfg")
        state = {"cfg": cfg, "cfg_path": kept / "run.cfg", "ckpt": kept / ckpt.name,
                 "seed": seed}
        return Setup(state, prep_s=t2 - t0, train_iters=cfg.iterations, train_s=t2 - t1,
                     # the checkpoint file embeds a zip timestamp, so compare its arrays
                     fingerprint=_digest(*(nets[name].get_flat() for name in sorted(nets)),
                                         np.asarray(losses, dtype=float)),
                     problems=_check_finite("trainlog", losses) + _check_energy(system, seed))

    def job(self, state: dict, workdir: Path) -> Job:
        out = _fresh_dir(workdir / "eval")
        t0 = perf_counter()
        code = cli.main(["eval", str(state["ckpt"]), "--config", str(state["cfg_path"]),
                         "--trials", str(self.trials), "--seed", str(state["seed"]),
                         "--out", str(out)])
        wall = perf_counter() - t0
        return Job(wall_s=wall, eval_trials=self.trials, eval_s=wall,
                   outputs={"codes": [code], "out": out})

    def check(self, state: dict, job: Job) -> None:
        job.problems = _exit_codes(job, "eval")
        if job.problems:
            return
        out = job.outputs["out"]
        path, = out.glob("metrics_*.csv")
        rows = {r["metric"]: float(r["value"]) for r in _read_csv(path)}
        job.csr, job.ber = rows["csr"], rows["ber"]
        job.bytes_written = _dir_bytes(out)
        job.fingerprint = _digest(path.read_bytes())
        pfs = [v for k, v in rows.items() if k.startswith("pf_warden_")]
        job.problems += _check_ber("eval csv", job.ber)
        job.problems += _check_pf("eval csv", pfs, state["cfg"].target_pf,
                                  max(self.trials, 10_000))


class SweepWorkload:
    """``covertsim sweep`` csr-vs-epochs and ber-vs-snr over four seeds.

    csr-vs-epochs gives each seed's final CSR and ber-vs-snr its BER at
    the training SNR, so the job yields every end-to-end metric.
    """

    n_seeds = 4
    iterations = 40
    snapshot_every = 20
    snapshot_trials = 256
    trials = 1000          # under the sweep's cap of 2,000 trials per point
    ber_metric = "ber@20"  # the config's training SNR

    def prepare(self, workdir: Path, seed: int) -> Setup:
        t0 = perf_counter()
        out = _fresh_dir(workdir / "setup")
        cfg = cli.RunConfig(scenario="urban", iterations=self.iterations, disc_warmup=20,
                            snapshot_every=self.snapshot_every,
                            snapshot_trials=self.snapshot_trials, trials=self.trials)
        cfg.save(out / "run.cfg")
        seeds = ",".join(str(self.n_seeds * seed + i) for i in range(self.n_seeds))
        state = {"cfg_path": out / "run.cfg", "seeds": seeds}
        return Setup(state, prep_s=perf_counter() - t0)

    def job(self, state: dict, workdir: Path) -> Job:
        out = _fresh_dir(workdir / "sweep")
        t0 = perf_counter()
        codes = [cli.main(["sweep", name, "--config", str(state["cfg_path"]),
                           "--seeds", state["seeds"], "--out", str(out)])
                 for name in ("csr-vs-epochs", "ber-vs-snr")]
        wall = perf_counter() - t0
        # check counts the trials from the CSV rows
        return Job(wall_s=wall, train_iters=2 * self.n_seeds * self.iterations, train_s=wall,
                   eval_s=wall, outputs={"codes": codes, "out": out})

    def check(self, state: dict, job: Job) -> None:
        job.problems = _exit_codes(job, "sweep")
        if job.problems:
            return
        out = job.outputs["out"]
        csr_path, = out.glob("sweep_csr-vs-epochs_*.csv")
        ber_path, = out.glob("sweep_ber-vs-snr_*.csv")
        csr_rows = [r for r in _read_csv(csr_path) if r["metric"].startswith("csr@")]
        ber_rows = [r for r in _read_csv(ber_path) if r["metric"].startswith("ber@")]
        # each CSR row is one snapshot, each BER row one SNR point of one method
        job.eval_trials = (len(csr_rows) * self.snapshot_trials
                           + len(ber_rows) * self.trials)
        csr = [float(r["value"]) for r in csr_rows
               if r["metric"] == f"csr@{self.iterations:g}"]
        ber = [float(r["value"]) for r in ber_rows
               if r["method"] == "proposed" and r["metric"] == self.ber_metric]
        if len(csr) != self.n_seeds or len(ber) != self.n_seeds:
            job.problems.append(f"sweep csv rows missing: {len(csr)} csr, {len(ber)} ber")
            return
        job.csr, job.ber = float(np.mean(csr)), float(np.mean(ber))
        job.bytes_written = _dir_bytes(out)
        job.fingerprint = _digest(csr_path.read_bytes(), ber_path.read_bytes())
        job.problems += [f"csr {c!r} outside [0, 1]" for c in csr if not 0.0 <= c <= 1.0]
        for b in ber:
            job.problems += _check_ber("sweep ber-vs-snr", b)


WORKLOADS = {
    "train-urban": TrainWorkload("urban"),
    "train-6g-dense": TrainWorkload("6g-dense"),
    "eval-urban": EvalWorkload(),
    "sweep-seeds": SweepWorkload(),
}
