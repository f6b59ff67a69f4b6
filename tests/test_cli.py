"""End-to-end CLI tests: config round trips, exit codes, artifact layout
and checkpoint compatibility checks."""

import configparser
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covertsim
from covertsim import cli, evaluation, neuralnet
from covertsim.adversarial import GeneratorSpec, TrainConfig, train
from covertsim.cli import (
    CSV_HEADER,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunConfig,
    ValidationError,
    _system_from_checkpoint,
    main,
)
from covertsim.evaluation import evaluate_system
from covertsim.numerics import RngStream


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
])
def test_validate_names_offending_field(overrides, needle):
    cfg = RunConfig(**overrides)
    with pytest.raises(ValidationError, match=needle):
        cfg.validate()


@pytest.mark.parametrize("text,needle", [
    ("[train]\niteration = 5\n", "iteration"),
    ("[eval]\nepsilon = 0.1\n", "epsilon"),
    ("[runs]\nseed = 1\n", "runs"),
    ("[train]\niterations = many\n", "iterations"),
    ("iterations = 5\n", "no section headers"),
    ("[train]\nlr = 1e-3\nlr = 2e-3\n", "'lr'.*already exists"),
    ("[DEFAULT]\niterations = 5\n", "DEFAULT"),
    ("[DEFAULT]\niterations = 5\n[train]\nbatch = 8\n", "DEFAULT"),
    ("[generator]\nhidden = 64,,64\n", "hidden"),
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
    assert cfg.digest() == "1aabbdee"


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
                for row in cli._sweep_rows("csr-vs-epochs", cfg, seed)]
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


def test_pooled_sweep_replays_across_processes_and_blas_threads(tmp_path):
    _, path = _tiny_config(tmp_path)
    src = str(Path(covertsim.__file__).resolve().parents[1])
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "covertsim.cli", "sweep", "csr-vs-epochs",
                        "--config", str(path), "--seeds", "7,8", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        csv_path, = out.glob("sweep_*.csv")
        csvs.append(csv_path.read_bytes())
    assert csvs[0] == csvs[1]


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
    checkpoint = neuralnet.load_checkpoint(ckpt)
    for eval_cfg in (cli._saved_config(checkpoint[1]), cfg):
        reloaded = _system_from_checkpoint(checkpoint, eval_cfg)
        assert reloaded.loss_mode == "wasserstein"
        assert reloaded.bob_sigma2 == system.bob_sigma2
        np.testing.assert_array_equal(reloaded.lambdas, system.lambdas)
        assert evaluate_system(reloaded, 200, RngStream(5)) == expected


def test_checkpoint_from_older_schema_is_refused(tmp_path, monkeypatch, capsys):
    cfg, path = _tiny_config(tmp_path)
    out = tmp_path / "runs"
    monkeypatch.setattr(neuralnet, "CHECKPOINT_VERSION", 1)
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_OK
    monkeypatch.undo()
    assert main(["eval", str(out / f"ckpt_{cfg.digest()}_s0.npz"),
                 "--out", str(out)]) == EXIT_RUNTIME
    assert "version 1" in capsys.readouterr().err
