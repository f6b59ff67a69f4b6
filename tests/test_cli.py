"""End-to-end CLI tests: config round trips, exit codes, artifact layout
and checkpoint compatibility checks."""

import configparser
import copy
import csv
import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covertsim
from covertsim import adversarial, cli, evaluation, neuralnet
from covertsim.adversarial import GeneratorSpec, TrainConfig, train
from covertsim.cli import (
    CSV_HEADER,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunConfig,
    ValidationError,
    main,
)
from covertsim.evaluation import evaluate_system
from covertsim.numerics import RngStream
from covertsim.scenarios import get_preset


def _tiny_config(tmp_path, **overrides):
    cfg = RunConfig(scenario="custom", k=2, sigma2=(0.5, 1.5),
                    message_bits=4, noise_dim=4, n=8, hidden=(16, 16),
                    dropout=0.0, iterations=10, batch=8, disc_warmup=5,
                    snapshot_every=5, snapshot_trials=128, trials=400)
    for key, val in overrides.items():
        setattr(cfg, key, val)
    path = tmp_path / "run.cfg"
    cfg.save(path)
    return cfg, path


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    cfg, path = _tiny_config(tmp_path, lr=5e-4, power_dbm=7.0)
    loaded = RunConfig.load(path)
    assert loaded == cfg


def test_config_file_is_sectioned(tmp_path):
    _, path = _tiny_config(tmp_path)
    parser = configparser.ConfigParser()
    parser.read(path)
    assert set(parser.sections()) == {"scenario", "generator", "train", "eval", "run"}
    assert parser["scenario"]["sigma2"] == "0.5,1.5"


def test_config_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        RunConfig.load(tmp_path / "nope.cfg")


def test_power_dbm_to_linear():
    assert RunConfig(power_dbm=10.0).power_linear == pytest.approx(10.0)
    assert RunConfig(power_dbm=0.0).power_linear == pytest.approx(1.0)
    assert RunConfig(power_dbm=3.0).power_linear == pytest.approx(1.9953, rel=1e-4)


@pytest.mark.parametrize("overrides,needle", [
    ({"scenario": "downtown"}, "scenario"),
    ({"scenario": "custom", "k": 0}, "K"),
    ({"iterations": 0}, "iterations"),
    ({"n": 10, "message_bits": 4}, "n"),
    ({"trials": 0}, "trials"),
    ({"loss_mode": "bogus"}, "loss mode"),
    ({"dropout": 1.5}, "dropout"),
    ({"scenario": "custom", "k": 2, "sigma2": (1.0,)}, "noise variances"),
    ({"trials": 50}, "trials"),
    ({"target_pf": 1.5}, "target_pf"),
    ({"snapshot_every": -1}, "snapshot_every"),
    ({"snapshot_trials": 0}, "snapshot_trials"),
    ({"lr": 0.0}, "lr"),
    ({"lr": -1.0}, "lr"),
    ({"mu": -5.0}, "mu"),
    ({"disc_warmup": -3}, "disc_warmup"),
    ({"eval_snr_db": float("nan")}, "eval_snr_db"),
    ({"power_dbm": float("nan")}, "power_dbm"),
    ({"power_dbm": float("inf")}, "power_dbm"),
    ({"lr": float("nan")}, "lr"),
    ({"lr": float("inf")}, "lr"),
    ({"mu": float("nan")}, "mu"),
    ({"train_snr_db": float("nan")}, "train_snr_db"),
    ({"scenario": "custom", "k": 2, "sigma2": (1.0, float("nan"))}, "sigma2"),
    ({"n_taps": 0}, "n_taps"),
    ({"rho": 1.5}, "rho"),
    ({"hidden": (64, 0)}, "hidden"),
    ({"n": 2, "message_bits": 2}, "n_taps"),
])
def test_validate_names_offending_field(overrides, needle):
    cfg = RunConfig(**overrides)
    with pytest.raises(ValidationError, match=needle):
        cfg.validate()


@pytest.mark.parametrize("text,needle", [
    ("[train]\niteration = 5\n", "iteration"),
    ("[eval]\nepsilon = 0.1\n", "epsilon"),
    ("[scenario]\ndoppler_hz = 10\n", "doppler_hz: unknown key in \\[scenario\\]"),
    ("[runs]\nseed = 1\n", "runs"),
    ("[train]\niterations = many\n", "iterations"),
    ("iterations = 5\n", "no section headers"),
    ("[train]\nlr = 1e-3\nlr = 2e-3\n", "'lr'.*already exists"),
    ("[DEFAULT]\niterations = 5\n", "DEFAULT"),
    ("[DEFAULT]\niterations = 5\n[train]\nbatch = 8\n", "DEFAULT"),
    ("[generator]\nhidden = 64,,64\n", "hidden"),
    ("[eval]\neval_snr_db = nan\n", "eval_snr_db: not a finite number"),
    ("[generator]\npower_dbm = inf\n", "power_dbm: not a finite number"),
    ("[scenario]\nsigma2 = 0.5,nan\n", "sigma2: not a finite number"),
])
def test_load_rejects_unknown_or_unparsable_keys(tmp_path, text, needle):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ValidationError, match=needle):
        RunConfig.load(path)


def test_load_fills_missing_keys_with_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\niterations = 5\n")
    assert RunConfig.load(path) == RunConfig(iterations=5)


def test_load_reads_tuples_and_a_wholly_empty_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[scenario]\nsigma2 =\n[generator]\nhidden = 16, 8\n")
    assert RunConfig.load(path) == RunConfig(sigma2=(), hidden=(16, 8))


def test_scenario_preset_custom_and_named():
    cfg = RunConfig(scenario="custom", k=2, sigma2=(0.3, 0.7))
    scen = cfg.scenario_preset()
    assert scen.k == 2 and scen.warden_sigma2 == (0.3, 0.7)
    assert RunConfig(scenario="military").scenario_preset().k == 4


def test_default_config_matches_the_library_and_is_pinned():
    cfg, spec, train_cfg = RunConfig(), GeneratorSpec(), TrainConfig()
    for key in RunConfig._SECTIONS["generator"]:
        if key == "power_dbm":
            assert 10.0 ** (cfg.power_dbm / 10.0) == pytest.approx(spec.power)
        else:
            assert getattr(cfg, key) == getattr(spec, key), key
    # lr is the one difference, and both defaults are read: config files
    # train at 1e-3, while the pinned numbers and library-level training
    # runs (the benchmark's train workloads) rely on TrainConfig's 1e-4
    assert (cfg.lr, train_cfg.lr) == (1e-3, 1e-4)
    for key in RunConfig._SECTIONS["train"]:
        if key != "lr":
            assert getattr(cfg, key) == getattr(train_cfg, key), key
    assert cfg.target_pf == train_cfg.target_pf
    # output names and manifests carry the digest; a default moving changes it
    assert cfg.digest() == "08600554"


def test_digest_tracks_content():
    a, b = RunConfig(), RunConfig(seed=1)
    assert a.digest() != b.digest()
    assert a.digest() == RunConfig().digest()


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------

def test_train_eval_report_pipeline(tmp_path, capsys):
    cfg, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_OK

    tag = f"{cfg.digest()}_s0"
    ckpt = out / f"ckpt_{tag}.npz"
    assert ckpt.exists()
    assert (out / f"trainlog_{tag}.jsonl").exists()
    manifests = list(out.glob("manifest_train_*.json"))
    assert len(manifests) == 1
    manifest = json.loads(manifests[0].read_text())
    assert manifest["seeds"] == [0]
    assert manifest["config"]["scenario"] == "custom"
    assert "dBm" in manifest["power_note"]

    with open(out / f"trainlog_{tag}.jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert sum(1 for row in lines if "snapshot" not in row) == cfg.iterations

    assert main(["eval", str(ckpt), "--config", str(path),
                 "--out", str(out)]) == EXIT_OK
    metrics = out / f"metrics_{cfg.digest()}_s0.csv"
    assert metrics.exists()
    with open(metrics) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    metric_names = {r[3] for r in rows[1:]}
    assert {"ber", "csr", "mean_pd", "mean_pd_lrt"} <= metric_names

    assert main(["report", str(metrics), "--out", str(out)]) == EXIT_OK
    summary = out / "summary.csv"
    with open(summary) as fh:
        srows = list(csv.reader(fh))
    assert srows[0][0] == "scenario"
    assert len(srows) == 2


@pytest.mark.parametrize("row,code", [
    (["proposed", "urban", "3", "csr", "0.5"], EXIT_VALIDATION),
    (["proposed", "urban", "3", "csr", "abc", "0.0", "0"], EXIT_VALIDATION),
    # a metric report does not summarise is skipped, whatever its value
    (["proposed", "summary", "", "csr_trend", "increasing", "", ""], EXIT_OK),
])
def test_report_refuses_a_malformed_row(tmp_path, capsys, row, code):
    path = tmp_path / "metrics.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([CSV_HEADER, ["proposed", "urban", "3", "ber", "0.1", "0.0", "0"],
                                  row])
    assert main(["report", str(path), "--out", str(tmp_path / "out")]) == code
    if code == EXIT_VALIDATION:
        assert f"{path}, line 3: malformed row" in capsys.readouterr().err


def test_report_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bin.csv"
    path.write_bytes(b"\xff\xfe")
    assert main(["report", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert f"{path}: not UTF-8 text" in capsys.readouterr().err


def test_eval_of_a_file_that_is_no_checkpoint_names_it(tmp_path, capsys):
    path = tmp_path / "ckpt.npz"
    path.write_text("method,scenario\n")
    assert main(["eval", str(path), "--out", str(tmp_path / "runs")]) == EXIT_RUNTIME
    assert f"{path}: not a readable checkpoint" in capsys.readouterr().err


def test_eval_checkpoint_without_config(tmp_path, monkeypatch):
    cfg, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    main(["train", "--config", str(path), "--out", str(out)])
    ckpt = out / f"ckpt_{cfg.digest()}_s0.npz"
    loads = []

    def counting_load(path):
        loads.append(path)
        return neuralnet.load_checkpoint(path)

    monkeypatch.setattr(cli, "load_checkpoint", counting_load)
    # header metadata alone must be enough to rebuild the system
    assert main(["eval", str(ckpt), "--trials", "400",
                 "--out", str(out)]) == EXIT_OK
    # the saved config and the nets come from one read
    assert len(loads) == 1


def test_eval_without_config_uses_the_saved_config(tmp_path):
    cfg, path = _tiny_config(tmp_path, target_pf=0.05, eval_snr_db=10.0, trials=300)
    out = tmp_path / "runs"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_OK
    ckpt = out / f"ckpt_{cfg.digest()}_s0.npz"
    evals = tmp_path / "evals"
    assert main(["eval", str(ckpt), "--out", str(evals)]) == EXIT_OK
    manifest = json.loads((evals / f"manifest_eval_{cfg.digest()}.json").read_text())
    assert manifest["config_digest"] == cfg.digest()
    saved = manifest["config"]
    assert (saved["scenario"], saved["target_pf"], saved["eval_snr_db"], saved["trials"]) == (
        "custom", 0.05, 10.0, 300)
    with open(evals / f"metrics_{cfg.digest()}_s0.csv") as fh:
        rows = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}
    # thresholds were calibrated at the saved target_pf, not the default 0.1
    assert rows["pf_warden_0"] == pytest.approx(0.05, abs=1e-3)


def test_checkpoint_scenario_mismatch_is_validation_error(tmp_path):
    cfg, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    main(["train", "--config", str(path), "--out", str(out)])
    ckpt = out / f"ckpt_{cfg.digest()}_s0.npz"
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    _, other = _tiny_config(other_dir, scenario="urban", k=0, sigma2=())
    assert main(["eval", str(ckpt), "--config", str(other),
                 "--out", str(out)]) == EXIT_VALIDATION


def test_baseline_noise_injection(tmp_path):
    cfg, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    assert main(["baseline", "noise-injection", "--config", str(path),
                 "--alpha", "0.6", "--out", str(out)]) == EXIT_OK
    files = list(out.glob("baseline_noise-injection_*.csv"))
    assert len(files) == 1
    with open(files[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert any(r[3] == "mean_pd_lrt" for r in rows[1:])


def test_baseline_unknown_name(tmp_path):
    _, path = _tiny_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "jamming", "--config", str(path),
              "--out", str(tmp_path / "runs")])
    assert exc.value.code == EXIT_USAGE
    assert not (tmp_path / "runs").exists()


def test_sweep_unknown_name(tmp_path):
    _, path = _tiny_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "no-such", "--config", str(path),
              "--out", str(tmp_path / "runs")])
    assert exc.value.code == EXIT_USAGE
    assert not (tmp_path / "runs").exists()


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_pooled_sweep_writes_the_in_process_rows(tmp_path):
    cfg, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    assert main(["sweep", "csr-vs-epochs", "--config", str(path), "--seeds", "4,5,6",
                 "--out", str(out)]) == EXIT_OK
    expected = [[str(v) for v in row] for seed in (4, 5, 6)
                for row in cli._sweep_rows("csr-vs-epochs", cfg, tmp_path / "direct", seed)]
    rows = _read_rows(out / f"sweep_csr-vs-epochs_{cfg.digest()}.csv")
    assert rows[0] == CSV_HEADER
    assert rows[1:1 + len(expected)] == expected
    assert [r[1] for r in rows[1 + len(expected):]] == ["summary", "summary"]


def test_sweep_failure_in_a_worker_exits_4(tmp_path, monkeypatch, capsys):
    _, path = _tiny_config(tmp_path)

    def broken(*args, **kwargs):
        raise RuntimeError("sweep broke at iteration 3")

    # forked workers inherit the patched module
    monkeypatch.setattr(evaluation, "run_sweeps", broken)
    assert main(["sweep", "csr-vs-epochs", "--config", str(path), "--seeds", "1,2",
                 "--out", str(tmp_path / "runs")]) == EXIT_RUNTIME
    assert "sweep broke at iteration 3" in capsys.readouterr().err


def _blas_threads(_):
    return cli._openblas("get")()


def test_sweep_workers_run_one_blas_thread():
    if cli._openblas("get") is None:
        pytest.skip("numpy's OpenBLAS cannot report its thread count")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: seeds run in this process")
    assert cli._map_seeds(_blas_threads, [0, 1]) == [1, 1]


def _entries(out):
    """Each stored training under out, with what changes when it is rewritten."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in (out / "trained").iterdir()}


def test_pooled_sweep_replays_across_processes_and_blas_threads(tmp_path):
    _, path = _tiny_config(tmp_path)
    src = str(Path(covertsim.__file__).resolve().parents[1])

    def sweep(threads, out):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "covertsim.cli", "sweep", "csr-vs-epochs",
                        "--config", str(path), "--seeds", "7,8", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        csv_path, = out.glob("sweep_*.csv")
        return csv_path.read_bytes()

    # each thread count trains into its own fresh directory
    written = sweep("1", tmp_path / "blas1")
    assert sweep("2", tmp_path / "blas2") == written
    # a 2-thread re-run into the 1-thread directory reads its two trainings and writes none
    entries = _entries(tmp_path / "blas1")
    assert sweep("2", tmp_path / "blas1") == written
    assert len(entries) == 2 and _entries(tmp_path / "blas1") == entries


def _count_trainings(monkeypatch) -> list:
    """Patch cli.train to record the stream of every training it runs."""
    calls = []

    def counting(cfg, scen, rng, **kwargs):
        calls.append(rng)
        return train(cfg, scen, rng, **kwargs)

    monkeypatch.setattr(cli, "train", counting)
    return calls


def test_sweeps_into_one_out_train_once_and_write_the_fresh_csvs(tmp_path, monkeypatch):
    _, path = _tiny_config(tmp_path)
    # a shorter adaptive loop; its rows still come from the stored system
    monkeypatch.setattr(evaluation, "adaptive_warden_loop", functools.partial(
        adversarial.adaptive_warden_loop, period=100, window=50, total=300, retrain_steps=10))
    calls = _count_trainings(monkeypatch)
    sweeps = ("csr-vs-epochs", "ber-vs-snr", "adaptive")
    shared = tmp_path / "shared"
    for sweep in sweeps:
        assert main(["sweep", sweep, "--config", str(path), "--out", str(shared)]) == EXIT_OK
    assert len(calls) == 1 and len(_entries(shared)) == 1
    for sweep in sweeps:
        fresh = tmp_path / f"fresh-{sweep}"
        assert main(["sweep", sweep, "--config", str(path), "--out", str(fresh)]) == EXIT_OK
        csv_path, = fresh.glob("sweep_*.csv")
        assert (shared / csv_path.name).read_bytes() == csv_path.read_bytes()
    assert len(calls) == 4


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, tuple):
        return value + value[-1:]
    return value + ("-b" if isinstance(value, str) else 1)


KEY_INPUTS = (TrainConfig(), get_preset("urban"), GeneratorSpec())


@pytest.mark.parametrize("which, name", [(i, f.name) for i, obj in enumerate(KEY_INPUTS)
                                         for f in dataclasses.fields(obj)])
def test_training_key_covers_every_config_field(which, name):
    inputs = list(KEY_INPUTS)
    base = cli._training_key(*inputs[:2], RngStream(3), inputs[2])
    inputs[which] = copy.copy(inputs[which])
    # the key reads the fields only, so an unvalidated value will do
    object.__setattr__(inputs[which], name, _changed(getattr(inputs[which], name)))
    assert cli._training_key(*inputs[:2], RngStream(3), inputs[2]) != base


def test_changed_seed_stream_or_source_misses_the_store(tmp_path, monkeypatch):
    cfg = TrainConfig(iterations=2, batch=4, disc_warmup=1, snapshot_every=1,
                      snapshot_trials=16)
    spec = GeneratorSpec(message_bits=4, noise_dim=4, n=8, hidden=(8,), dropout=0.0)
    calls = _count_trainings(monkeypatch)

    def run(rng):
        return cli._cached_train(tmp_path, cfg, get_preset("urban"), rng, gen_spec=spec)

    system, log = run(RngStream(3))
    stored, stored_log = run(RngStream(3))
    assert len(calls) == 1 and stored_log == log
    for name, net in cli._nets(system).items():
        np.testing.assert_array_equal(cli._nets(stored)[name].params, net.params)
    run(RngStream(4))
    run(RngStream(3, 1))
    monkeypatch.setattr(cli, "_source_digest", lambda: "edited")
    run(RngStream(3))
    assert len(calls) == 4 and len(list(tmp_path.iterdir())) == 4


def test_a_truncated_entry_is_trained_again(tmp_path, monkeypatch):
    _, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    args = ["sweep", "csr-vs-epochs", "--config", str(path), "--out", str(out)]
    assert main(args) == EXIT_OK
    csv_path, = out.glob("sweep_*.csv")
    written = csv_path.read_bytes()
    entry, = (out / "trained").iterdir()
    entry.write_bytes(entry.read_bytes()[:entry.stat().st_size // 2])
    calls = _count_trainings(monkeypatch)
    assert main(args) == EXIT_OK
    assert len(calls) == 1 and csv_path.read_bytes() == written
    # the retrained entry replaced the truncated one
    assert main(args) == EXIT_OK
    assert len(calls) == 1 and list((out / "trained").iterdir()) == [entry]


def test_a_readable_entry_with_a_bad_log_fails_loudly(tmp_path, monkeypatch):
    cfg = TrainConfig(iterations=2, batch=4, disc_warmup=1, snapshot_every=1,
                      snapshot_trials=16)
    spec = GeneratorSpec(message_bits=4, noise_dim=4, n=8, hidden=(8,), dropout=0.0)
    calls = _count_trainings(monkeypatch)

    def run():
        return cli._cached_train(tmp_path, cfg, get_preset("urban"), RngStream(3), gen_spec=spec)

    run()
    entry, = tmp_path.iterdir()
    nets, header = neuralnet.load_checkpoint(entry)
    extra = dict(header["extra"], log={**header["extra"]["log"], "renamed": []})
    neuralnet.save_checkpoint(entry, nets, extra=extra)
    with pytest.raises(TypeError, match="renamed"):
        run()
    assert len(calls) == 1 and list(tmp_path.iterdir()) == [entry]


def test_a_sweep_prunes_only_the_entries_of_another_source_or_numpy(tmp_path, monkeypatch):
    _, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    args = ["sweep", "csr-vs-epochs", "--config", str(path), "--out", str(out)]
    assert main(args) == EXIT_OK
    current, = (out / "trained").iterdir()
    nets, header = neuralnet.load_checkpoint(current)
    for name, changed in (("a" * 64, {"source": "0" * 64}), ("b" * 64, {"numpy": "1.0.0"})):
        key = {**header["extra"]["key"], **changed}
        neuralnet.save_checkpoint(out / "trained" / f"{name}.npz", nets,
                                  extra={**header["extra"], "key": key})
    # a concurrent save's temporary and a file that is no entry stay
    kept = {current.name, f"{'a' * 64}.123.npz", "notes.npz"}
    for name in kept - {current.name}:
        (out / "trained" / name).write_bytes((out / "trained" / f"{'a' * 64}.npz").read_bytes())
    calls = _count_trainings(monkeypatch)
    assert main(args) == EXIT_OK
    assert calls == [] and {p.name for p in (out / "trained").iterdir()} == kept


# run as a fresh interpreter in which every scipy import, a lazy one too, fails
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from covertsim import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    cfg, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    tag = f"{cfg.digest()}_s{cfg.seed}"
    commands = [
        ["train", "--config", str(path), "--out", str(out)],
        ["eval", str(out / f"ckpt_{tag}.npz"), "--out", str(out)],
        # two seeds, so the forked workers run too
        ["sweep", "csr-vs-epochs", "--config", str(path), "--seeds", "0,1", "--out", str(out)],
        ["baseline", "noise-injection", "--config", str(path), "--out", str(out)],
        ["report", str(out / f"metrics_{tag}.csv"),
         str(out / f"baseline_noise-injection_{tag}.csv"), "--out", str(out)],
    ]
    src = str(Path(covertsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(commands)],
                          env=env, check=True, capture_output=True, text=True, timeout=300)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [EXIT_OK] * len(commands), "scipy": []}, done.stderr


def _stored_training(tmp_path):
    _, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    assert main(["sweep", "csr-vs-epochs", "--config", str(path), "--out", str(out)]) == EXIT_OK
    entry, = (out / "trained").iterdir()
    return entry, path, out


def test_eval_refuses_a_stored_training(tmp_path, capsys):
    entry, path, out = _stored_training(tmp_path)
    assert main(["eval", str(entry), "--out", str(out)]) == EXIT_VALIDATION
    assert "no run config, only ['key', 'log']" in capsys.readouterr().err
    # the sweep trained urban's three wardens, not the config's two
    assert main(["eval", str(entry), "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
    assert ("checkpoint has nets ['decoder', 'disc_0', 'disc_1', 'disc_2', 'generator'] "
            "but the config builds ['decoder', 'disc_0', 'disc_1', 'generator']"
            ) in capsys.readouterr().err


def test_eval_of_a_stored_training_under_a_config_that_describes_it(tmp_path):
    entry, _, out = _stored_training(tmp_path)
    urban_dir = tmp_path / "urban"
    urban_dir.mkdir()
    _, urban = _tiny_config(urban_dir, scenario="urban", k=0, sigma2=())
    assert main(["eval", str(entry), "--config", str(urban), "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("curves, trend", [
    # the last seed's final CSR beats the first seed's initial one, yet the seed means fall
    ({1: (0.5, 0.1), 2: (0.3, 0.6)}, "flat"),
    # and the other way round
    ({1: (0.2, 0.7), 2: (0.6, 0.15)}, "increasing"),
])
def test_csr_trend_compares_the_seed_means(tmp_path, monkeypatch, curves, trend):
    _, path = _tiny_config(tmp_path)

    def snapshots(which, cfg, rng, **kwargs):
        return [evaluation.SweepPoint("proposed", "urban", 3, "csr", x, csr, 0.0, rng.seed)
                for x, csr in zip((0, 10), curves[rng.seed])]

    # forked workers inherit the patched module
    monkeypatch.setattr(evaluation, "run_sweeps", snapshots)
    out = tmp_path / "runs"
    assert main(["sweep", "csr-vs-epochs", "--config", str(path), "--seeds", "1,2",
                 "--out", str(out)]) == EXIT_OK
    csv_path, = out.glob("sweep_*.csv")
    assert [r[4] for r in _read_rows(csv_path) if r[3] == "csr_trend"] == [trend]


def test_exit_codes_for_bad_inputs(tmp_path):
    # missing config file -> usage
    assert main(["train", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == EXIT_USAGE
    # invalid config content -> validation
    _, path = _tiny_config(tmp_path, iterations=0)
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    # rejected by a library constructor rather than a check of RunConfig's own
    _, path = _tiny_config(tmp_path, dropout=1.5)
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    # snapshot and detection settings the run cannot use, refused before training
    for bad in ({"snapshot_trials": 0}, {"snapshot_every": -1}, {"target_pf": 1.5}):
        _, path = _tiny_config(tmp_path, **bad)
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
    # --trials is validated like the config's trials, before any checkpoint is read
    _, path = _tiny_config(tmp_path)
    for trials in ("50", "0"):
        assert main(["eval", str(tmp_path / "none.npz"), "--config", str(path),
                     "--trials", trials, "--out", str(tmp_path)]) == EXIT_VALIDATION
    # a config whose nets differ from the checkpoint's beyond the generator:
    # more Bob taps widen only the decoder input
    cfg, path = _tiny_config(tmp_path, iterations=2, disc_warmup=0, snapshot_every=0)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "runs")]) == EXIT_OK
    ckpt = tmp_path / "runs" / f"ckpt_{cfg.digest()}_s0.npz"
    _, path = _tiny_config(tmp_path, n_taps=6)
    assert main(["eval", str(ckpt), "--config", str(path),
                 "--out", str(tmp_path / "runs")]) == EXIT_VALIDATION


def test_usage_error_on_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("seeds", ["1,x", "1,,2"])
def test_usage_error_on_malformed_seeds(tmp_path, seeds):
    _, path = _tiny_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "csr-vs-epochs", "--config", str(path), "--seeds", seeds,
              "--out", str(tmp_path / "runs")])
    assert exc.value.code == EXIT_USAGE
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("alpha", ["0", "1.5", "nan", "x"])
def test_usage_error_on_alpha_outside_the_unit_interval(tmp_path, alpha):
    _, path = _tiny_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "noise-injection", "--config", str(path), "--alpha", alpha,
              "--out", str(tmp_path / "runs")])
    assert exc.value.code == EXIT_USAGE
    assert not (tmp_path / "runs").exists()


def test_train_seed_override_and_determinism(tmp_path):
    cfg, path = _tiny_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["train", "--config", str(path), "--seed", "3", "--out", str(out_a)])
    main(["train", "--config", str(path), "--seed", "3", "--out", str(out_b)])
    ckpt_a = next(out_a.glob("ckpt_*_s3.npz"))
    ckpt_b = out_b / ckpt_a.name
    with np.load(ckpt_a) as a, np.load(ckpt_b) as b:
        np.testing.assert_array_equal(a["generator"], b["generator"])


def test_train_with_single_trial_snapshots(tmp_path):
    _, path = _tiny_config(tmp_path, snapshot_trials=1)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "runs")]) == EXIT_OK


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_reproduces_the_system(tmp_path):
    cfg, path = _tiny_config(tmp_path, loss_mode="wasserstein", train_snr_db=15.0)
    out = tmp_path / "runs"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_OK
    ckpt = out / f"ckpt_{cfg.digest()}_s0.npz"
    system, _ = train(cfg.train_config(), cfg.scenario_preset(), RngStream(cfg.seed),
                      gen_spec=cfg.generator_spec())
    expected = evaluate_system(system, 200, RngStream(5))
    nets, header = neuralnet.load_checkpoint(ckpt)
    assert cli._saved_config(header) == cfg
    reloaded = cli._load_system(nets, cfg.generator_spec(), cfg.scenario_preset(),
                                cfg.train_config())
    assert reloaded.loss_mode == "wasserstein"
    assert reloaded.bob_sigma2 == system.bob_sigma2
    np.testing.assert_array_equal(reloaded.lambdas, system.lambdas)
    assert evaluate_system(reloaded, 200, RngStream(5)) == expected


def test_eval_refuses_a_config_of_the_other_loss_mode(tmp_path, capsys):
    cfg, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_OK
    ckpt = out / f"ckpt_{cfg.digest()}_s0.npz"
    _, other = _tiny_config(tmp_path, loss_mode="wasserstein")
    assert main(["eval", str(ckpt), "--config", str(other), "--out", str(out)]) == EXIT_VALIDATION
    assert "disc_0 layers do not match" in capsys.readouterr().err


def test_eval_refuses_a_checkpoint_without_a_run_config(tmp_path, capsys):
    cfg = RunConfig(scenario="urban")
    system = adversarial.build_system(cfg.generator_spec(), cfg.scenario_preset(), RngStream(1))
    ckpt = tmp_path / "lib.npz"
    neuralnet.save_checkpoint(ckpt, cli._nets(system))
    assert main(["eval", str(ckpt), "--trials", "200",
                 "--out", str(tmp_path / "runs")]) == EXIT_VALIDATION
    assert "no run config, only []" in capsys.readouterr().err
    # a header with only some fields is refused too, not filled with defaults
    neuralnet.save_checkpoint(ckpt, cli._nets(system), extra={"seed": 3})
    assert main(["eval", str(ckpt), "--trials", "200",
                 "--out", str(tmp_path / "runs")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "no run config, only ['seed'] (missing ['batch', 'clip'," in err
    assert "unknown []); evaluate it with --config" in err
    assert not (tmp_path / "runs").exists()


def test_a_checkpoint_saved_with_doppler_hz_evaluates_only_with_a_config(tmp_path, capsys):
    # files written before the Doppler knob was deleted hold it in their run config
    cfg, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_OK
    ckpt = out / f"ckpt_{cfg.digest()}_s0.npz"
    nets, header = neuralnet.load_checkpoint(ckpt)
    neuralnet.save_checkpoint(ckpt, nets, extra={**header["extra"], "doppler_hz": 10.0})
    assert main(["eval", str(ckpt), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "missing [], unknown ['doppler_hz']" in err and "--config" in err
    assert main(["eval", str(ckpt), "--config", str(path), "--out", str(out)]) == EXIT_OK


def test_a_failed_save_leaves_no_checkpoint(tmp_path, monkeypatch):
    _, path = _tiny_config(tmp_path)

    def failing_save(path, *args, **kwargs):
        Path(path).write_bytes(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_checkpoint", failing_save)
    out = tmp_path / "runs"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_RUNTIME
    assert list(out.glob("ckpt_*.npz")) == []


def test_checkpoint_from_older_schema_is_refused(tmp_path, monkeypatch, capsys):
    cfg, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    monkeypatch.setattr(neuralnet, "CHECKPOINT_VERSION", 1)
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_OK
    monkeypatch.undo()
    assert main(["eval", str(out / f"ckpt_{cfg.digest()}_s0.npz"),
                 "--out", str(out)]) == EXIT_RUNTIME
    assert "version 1" in capsys.readouterr().err
