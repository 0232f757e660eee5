from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from leapverify.cli import build_config, build_parser, main
from leapverify.config import OUT_ENV_VAR, load_config

BASE = [
    "--task", "quad-bowl", "--seeds", "42", "--steps", "300", "--delta", "50",
    "--k-set", "5,10", "--tau-low", "-0.999", "--tau-high", "-0.99",
]


def run_all_args(out) -> list[str]:
    return ["run-all", *BASE, "--out", str(out)]


def test_no_subcommand_exits_with_usage():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_flag_exits_with_usage():
    with pytest.raises(SystemExit):
        main(["train", "--velocity", "9"])


def test_build_config_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("task = quad-bowl\nsteps = 250\ndelta = 25\n")
    args = build_parser().parse_args(
        ["train", "--config", str(cfg_file), "--steps", "300"])
    cfg = build_config(args)
    assert cfg.steps == 300   # flag wins
    assert cfg.delta == 25    # file wins over default
    assert cfg.task == "quad-bowl"


def test_run_all_writes_the_full_layout(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(run_all_args(out)) == 0
    assert (out / "report.json").exists()
    assert (out / "report.txt").exists()
    assert (out / "config.txt").exists()
    run_dir = out / "runs" / "quad-bowl" / "42"
    assert (run_dir / "sweep.csv").exists()
    assert (run_dir / "cascades.jsonl").exists()
    assert (run_dir / "loss_log.csv").exists()
    stdout = capsys.readouterr().out
    assert "report over seeds [42]" in stdout
    assert "single seed" in stdout
    # the stored effective config reparses and echoes resolved values
    cfg = load_config(out / "config.txt")
    assert cfg.task == "quad-bowl"
    assert cfg.lr == 0.05
    assert cfg.tau_low == -0.999


def test_run_all_refuses_to_overwrite(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(run_all_args(out)) == 0
    capsys.readouterr()
    assert main(run_all_args(out)) == 1
    err = capsys.readouterr().err
    assert "already exists" in err
    assert "--force" in err
    assert main(run_all_args(out) + ["--force"]) == 0


def test_run_all_rejects_invalid_settings(tmp_path, capsys):
    assert main(run_all_args(tmp_path / "x") + ["--epsilon", "2.0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_report_rebuilds_identically_from_stored_outputs(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(run_all_args(out)) == 0
    original = json.loads((out / "report.json").read_text())
    (out / "report.json").unlink()
    assert main(["report", "--out", str(out)]) == 0
    rebuilt = json.loads((out / "report.json").read_text())
    assert rebuilt == original
    assert "report over seeds [42]" in capsys.readouterr().out


def test_report_aggregates_only_the_configured_seeds(tmp_path):
    out = tmp_path / "exp"
    assert main(run_all_args(out) + ["--seeds", "42,43"]) == 0
    assert main(["report", "--seeds", "42", "--out", str(out)]) == 0
    rebuilt = json.loads((out / "report.json").read_text())
    assert rebuilt["seeds"] == [42]
    assert rebuilt["config"]["seeds"] == [42]
    assert list(rebuilt["regime_counts"]) == ["42"]


def test_report_reads_the_output_root_it_found_the_config_in(tmp_path, monkeypatch):
    old, new = tmp_path / "old", tmp_path / "new"
    assert main(run_all_args(old)) == 0
    original = json.loads((old / "report.json").read_text())
    shutil.move(old, new)
    (new / "report.json").unlink()
    monkeypatch.setenv(OUT_ENV_VAR, str(new))
    assert main(["report"]) == 0
    assert not old.exists()
    rebuilt = json.loads((new / "report.json").read_text())
    assert rebuilt["config"]["out"] == str(new)
    original["config"]["out"] = str(new)
    assert rebuilt == original


def test_report_without_runs_fails(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "empty")]) == 1
    assert "no run directories" in capsys.readouterr().err


def test_sweep_before_train_fails(tmp_path, capsys):
    assert main(["sweep", *BASE, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "pass2 (sweep) failed for seed 42" in err


def test_report_requires_the_sweep_pass(tmp_path, capsys):
    out = tmp_path / "exp"
    run_dir = out / "runs" / "quad-bowl" / "42"
    # after train alone, then after train and sweep without the cascade pass
    for command, missing, stage in (("train", "sweep.csv", "sweep"),
                                    ("sweep", "cascades.jsonl", "cascade")):
        assert main([command, *BASE, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", *BASE, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{run_dir / missing} missing; run the {stage} pass first" in err


def test_train_sweep_cascade_pipeline(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["train", *BASE, "--out", str(out)]) == 0
    assert main(["train", *BASE, "--out", str(out)]) == 1  # refuses rerun
    assert "already exists" in capsys.readouterr().err
    assert main(["sweep", *BASE, "--out", str(out)]) == 0
    assert main(["cascade", *BASE, "--out", str(out)]) == 0
    assert main(["report", *BASE, "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_report_after_single_passes_records_the_resolved_lr_and_taus(tmp_path, capsys):
    out = tmp_path / "exp"
    calibrated = ["--task", "quad-bowl", "--seeds", "42", "--steps", "300", "--delta", "50",
                  "--k-set", "5,10", "--out", str(out)]
    for command in ("train", "sweep", "cascade"):
        assert main([command, *calibrated]) == 0
    capsys.readouterr()
    assert main(["report", *calibrated]) == 0
    assert "calibrating" not in capsys.readouterr().out
    stored = dict(line.split(" = ") for line in
                  (out / "thresholds.txt").read_text().splitlines())
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["lr"] == 0.05
    assert (config["tau_low"], config["tau_high"]) == (float(stored["tau_low"]),
                                                       float(stored["tau_high"]))


def test_sweep_refuses_a_run_without_its_loss_log(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["train", *BASE, "--out", str(out)]) == 0
    log = out / "runs" / "quad-bowl" / "42" / "loss_log.csv"
    log.unlink()  # as a crashed pass 1 leaves its run dir
    capsys.readouterr()
    assert main(["sweep", *BASE, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"pass2 (sweep) failed for seed 42: {log} missing" in err


def test_an_override_the_task_does_not_take_is_refused(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("task = char-seq\nnoise = 0.5\nseeds = 42\nsteps = 100\ndelta = 25\n")
    out = tmp_path / "exp"
    for command in ("train", "live", "run-all"):
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        assert "task 'char-seq' does not take 'noise'" in capsys.readouterr().err
        assert not out.exists()  # refused before any run, even calibration, started


def test_config_parse_errors_name_the_file(tmp_path, capsys):
    (tmp_path / "config.txt").write_text("jobs = 2\n")
    assert main(["report", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'config.txt'}: line 1: unknown config key 'jobs'" in err


def test_rerun_with_another_delta_refuses_without_force(tmp_path, capsys):
    out = tmp_path / "exp"
    for command in ("train", "live"):
        assert main([command, *BASE, "--out", str(out)]) == 0
        sub = "runs" if command == "train" else "live"
        run_dir = out / sub / "quad-bowl" / "42"
        before = sorted(p.name for p in run_dir.iterdir())
        assert "ckpt_50.lpv" in before
        capsys.readouterr()
        # a delta-25 rerun writes no ckpt_25.lpv of the old run, yet must refuse
        assert main([command, *BASE, "--delta", "25", "--out", str(out)]) == 1
        assert "already exists; pass --force" in capsys.readouterr().err
        assert sorted(p.name for p in run_dir.iterdir()) == before


def test_forced_retrain_drops_the_stale_sweep(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["train", *BASE, "--out", str(out)]) == 0
    assert main(["sweep", *BASE, "--out", str(out)]) == 0
    assert main(["cascade", *BASE, "--out", str(out)]) == 0
    assert main(["train", *BASE, "--delta", "25", "--force", "--out", str(out)]) == 0
    run_dir = out / "runs" / "quad-bowl" / "42"
    assert not (run_dir / "sweep.csv").exists()
    assert not (run_dir / "cascades.jsonl").exists()
    assert (run_dir / "ckpt_25.lpv").exists()
    capsys.readouterr()
    # the delta-50 sweep can no longer be aggregated against delta-25 checkpoints
    assert main(["report", *BASE, "--out", str(out)]) == 1
    assert "run the sweep pass first" in capsys.readouterr().err


def test_calibrate_stores_thresholds(tmp_path, capsys):
    out = tmp_path / "exp"
    cmd = ["calibrate", "--task", "quad-bowl", "--steps", "300", "--delta", "50",
           "--out", str(out)]
    assert main(cmd) == 0
    lines = (out / "thresholds.txt").read_text().splitlines()
    values = dict(line.split(" = ") for line in lines)
    tau_low, tau_high = float(values["tau_low"]), float(values["tau_high"])
    assert -1.0 <= tau_low < tau_high <= 1.0
    capsys.readouterr()

    # a later pass picks the stored thresholds up instead of recalibrating
    assert main(["train", "--task", "quad-bowl", "--steps", "300",
                 "--delta", "50", "--seeds", "42", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "calibrating" not in stdout


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that diverges the run
def test_diverging_calibration_names_its_pass_seed_and_step(tmp_path, capsys):
    assert main(["calibrate", "--lr", "1e12", "--steps", "200", "--delta", "50",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"calibrate failed for seed 1: .* at step \d+ \(seed 1\)", err), err


def test_diverging_run_prints_only_its_error_line(tmp_path):
    # numpy's overflow warnings go to stderr outside pytest's capture, so run a real process
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "leapverify", "calibrate", "--lr", "1e12", "--steps", "200",
         "--delta", "50", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("error: calibrate failed for seed 1: non-finite gradient; "
                           "training halted at step 19 (seed 1)\n")


def test_calibrate_with_explicit_taus_skips_runs(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["calibrate", "--task", "quad-bowl", "--tau-low", "0.5",
                 "--tau-high", "0.9", "--out", str(out)]) == 0
    assert "calibration skipped" in capsys.readouterr().out
    text = (out / "thresholds.txt").read_text()
    assert "0.5" in text and "0.9" in text


def test_invalid_tau_pair_fails_cleanly(tmp_path, capsys):
    assert main(["calibrate", "--task", "quad-bowl", "--tau-low", "0.9",
                 "--tau-high", "0.5", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_live_applies_leaps(tmp_path, capsys):
    out = tmp_path / "exp"
    cfg_file = tmp_path / "live.cfg"
    cfg_file.write_text(
        "task = quad-bowl\nnoise = 0.0\nseeds = 42\nsteps = 300\ndelta = 50\n"
        "tau_low = -0.999\ntau_high = -0.99\n")
    cmd = ["live", "--config", str(cfg_file), "--out", str(out),
           "--live-predictor", "linear", "--live-k", "30", "--criterion", "strict"]
    assert main(cmd) == 0
    stdout = capsys.readouterr().out
    assert "3 speculations, 1 leaps, 30 steps skipped" in stdout
    live_dir = out / "live" / "quad-bowl" / "42"
    assert (live_dir / "loss_log.csv").exists()
    assert (live_dir / "events.jsonl").exists()
    events = [json.loads(line) for line in
              (live_dir / "events.jsonl").read_text().splitlines()]
    assert sum(e["applied"] for e in events) == 1
    # live runs refuse to clobber themselves too
    assert main(cmd) == 1
    assert main(cmd + ["--force"]) == 0


def test_live_records_its_effective_config(tmp_path, capsys):
    out = tmp_path / "exp"
    cmd = ["live", "--task", "quad-bowl", "--seeds", "42,43", "--steps", "300",
           "--delta", "50", "--live-k", "30", "--criterion", "adaptive",
           "--ff-policy", "decay", "--out", str(out)]
    assert main(cmd) == 0
    assert "calibrating" in capsys.readouterr().out
    stored = dict(line.split(" = ") for line in
                  (out / "thresholds.txt").read_text().splitlines())
    for seed in (42, 43):
        cfg = load_config(out / "live" / "quad-bowl" / str(seed) / "config.txt")
        assert (cfg.tau_low, cfg.tau_high) == (float(stored["tau_low"]),
                                               float(stored["tau_high"]))
        assert cfg.lr == 0.05
        assert (cfg.live_predictor, cfg.live_k) == ("linear", 30)
        assert (cfg.criterion, cfg.ff_policy) == ("adaptive", "decay")
        assert cfg.out == str(out)
    # a config.txt alone marks a live dir as used
    used = out / "live" / "quad-bowl" / "44"
    used.mkdir()
    (used / "config.txt").write_text("")
    assert main(cmd + ["--seeds", "44"]) == 1
    assert "config.txt already exists" in capsys.readouterr().err


def test_out_env_var_is_honored(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "from-env"))
    assert main(["calibrate", "--task", "quad-bowl", "--tau-low", "0.5",
                 "--tau-high", "0.9"]) == 0
    assert (tmp_path / "from-env" / "thresholds.txt").exists()


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    stdout = capsys.readouterr().out
    for name in ("calibrate", "train", "sweep", "cascade", "live", "report", "run-all"):
        assert name in stdout
