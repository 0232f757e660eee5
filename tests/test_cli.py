from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from leapverify import harness
from leapverify.cli import build_config, build_parser, main
from leapverify.config import OUT_ENV_VAR, load_config

BASE = [
    "--task", "quad-bowl", "--seeds", "42", "--steps", "300", "--delta", "50",
    "--k-set", "5,10,25,50", "--tau-low", "-0.999", "--tau-high", "-0.99",
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


def test_cascade_requires_the_sweep_pass(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["train", *BASE, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["cascade", *BASE, "--out", str(out)]) == 1
    sweep = out / "runs" / "quad-bowl" / "42" / "sweep.csv"
    assert (f"pass3 (cascade) failed for seed 42: {sweep} missing; run the sweep pass first"
            in capsys.readouterr().err)


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
                  "--k-set", "5,10,25,50", "--out", str(out)]
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


def test_report_refuses_cascades_of_another_criterion(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(run_all_args(out)) == 0  # strict, the default
    assert main(["cascade", "--config", str(out / "config.txt"), "--out", str(out),
                 "--criterion", "adaptive"]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    cascades = out / "runs" / "quad-bowl" / "42" / "cascades.jsonl"
    assert capsys.readouterr().err == (
        f"error: report failed for seed 42: {cascades} was scored under criterion adaptive, "
        f"not the configured strict; run the cascade pass again\n")


def test_report_refuses_outputs_of_another_epsilon(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["run-all", "--task", "quad-bowl", "--seeds", "42", "--steps", "300",
                 "--delta", "50", "--out", str(out)]) == 0
    report = (out / "report.txt").read_bytes()
    run_dir = out / "runs" / "quad-bowl" / "42"
    capsys.readouterr()
    # some proximity verdicts of the epsilon-0.05 sweep change under 0.5
    assert main(["report", "--out", str(out), "--epsilon", "0.5"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: report failed for seed 42: {run_dir / 'sweep.csv'} was swept under another "
        f"epsilon than 0.5 ")
    assert (out / "report.txt").read_bytes() == report
    assert main(["report", "--out", str(out), "--epsilon", "0.05"]) == 0
    assert (out / "report.txt").read_bytes() == report
    # a sweep again under 0.5 leaves the cascades of 0.05
    assert main(["sweep", "--config", str(out / "config.txt"), "--out", str(out),
                 "--epsilon", "0.5"]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out), "--epsilon", "0.5"]) == 1
    assert capsys.readouterr().err == (
        f"error: report failed for seed 42: {run_dir / 'cascades.jsonl'} was scored under "
        f"epsilon 0.05, not the configured 0.5; run the cascade pass again\n")


def test_an_invalid_optimizer_setting_is_refused_before_force_deletes_anything(tmp_path,
                                                                              capsys):
    out = tmp_path / "exp"
    assert main(run_all_args(out)) == 0
    before = files_under(out)
    config = tmp_path / "run.cfg"
    capsys.readouterr()
    for setting, refusal in (("beta1 = 1.5", "betas must lie in (0, 1)"),
                             ("batch_size = 8", "task 'quad-bowl' does not take 'batch_size'")):
        config.write_text(setting + "\n")
        for command in ("train", "run-all"):
            assert main([command, "--config", str(config), *BASE, "--out", str(out),
                         "--force"]) == 1
            assert refusal in capsys.readouterr().err
            assert files_under(out) == before


def test_a_failed_forced_run_all_leaves_no_stale_report(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run-all", "--task", "quad-bowl", "--seeds", "42,43", "--steps", "300",
            "--delta", "50", "--out", str(out)]
    assert main(args) == 0
    assert main([*args, "--force", "--lr", "1000000"]) == 1
    assert "pass1 (train) failed for seed 42" in capsys.readouterr().err
    # the report and config of the earlier run went with its run dirs
    assert not any((out / name).exists() for name in ("report.json", "report.txt",
                                                      "config.txt"))
    assert main(["report", *args[1:]]) == 1
    assert "report failed for seed 42: " in capsys.readouterr().err


def test_a_failed_calibration_leaves_a_forced_rerun_s_files_intact(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--task", "quad-bowl", "--seeds", "42,43", "--steps", "300", "--delta", "50",
            "--out", str(out)]
    assert main(["run-all", *args]) == 0
    (out / "thresholds.txt").unlink()
    before = files_under(out)
    capsys.readouterr()
    # the thresholds are resolved, here by calibrating, before --force empties a run dir
    for command in ("train", "live", "run-all"):
        assert main([command, *args, "--force", "--lr", "1000000"]) == 1
        assert "calibrate failed for seed 1" in capsys.readouterr().err
        assert files_under(out) == before


def test_sweep_refuses_a_run_without_its_loss_log(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["train", *BASE, "--out", str(out)]) == 0
    log = out / "runs" / "quad-bowl" / "42" / "loss_log.csv"
    log.unlink()  # as a crashed pass 1 leaves its run dir
    capsys.readouterr()
    assert main(["sweep", *BASE, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"pass2 (sweep) failed for seed 42: {log} missing" in err


def test_a_corrupt_checkpoint_names_its_pass_seed_and_file(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["train", *BASE, "--out", str(out)]) == 0
    ckpt = out / "runs" / "quad-bowl" / "42" / "ckpt_150.lpv"
    ckpt.write_bytes(ckpt.read_bytes()[:-8])  # a truncated write
    capsys.readouterr()
    assert main(["sweep", *BASE, "--out", str(out)]) == 1
    assert f"pass2 (sweep) failed for seed 42: {ckpt}: " in capsys.readouterr().err


def files_under(root: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_cascade_k_outside_the_k_set_is_refused(tmp_path, capsys):
    # only a cascade needs its K in k_set, since its stage 1 is the sweep cell
    # at that K; the default cascades are 4x25, 2x50 and 10x10
    out = tmp_path / "exp"
    narrow = ["--task", "quad-bowl", "--seeds", "42", "--steps", "300", "--delta", "50",
              "--k-set", "5,10", "--out", str(out)]
    taus = ["--tau-low", "-0.999", "--tau-high", "-0.99"]
    for command in ("train", "sweep"):
        assert main([command, *narrow, *taus]) == 0
    before = files_under(out)
    capsys.readouterr()
    refusal = "error: cascade 4x25: K=25 is not in k_set 5,10\n"
    # refused before --force deletes a run dir or a calibration writes thresholds.txt
    assert main(["run-all", *narrow, "--force"]) == 1
    assert capsys.readouterr().err == refusal
    assert files_under(out) == before
    assert not (out / "thresholds.txt").exists()
    assert main(["cascade", *narrow, *taus]) == 1
    assert capsys.readouterr().err == refusal
    assert files_under(out) == before


def test_an_override_the_task_does_not_take_is_refused(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("task = char-seq\nnoise = 0.5\nseeds = 42\nsteps = 100\ndelta = 25\n")
    out = tmp_path / "exp"
    for argv in (["train"], ["live"], ["run-all"],
                 ["calibrate", "--tau-low", "-0.9", "--tau-high", "0.5"]):
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 1
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


def test_a_forced_rerun_clears_the_tmp_files_of_interrupted_writes(tmp_path, capsys):
    out = tmp_path / "exp"
    run_dir = out / "runs" / "quad-bowl" / "42"
    run_dir.mkdir(parents=True)
    # the run rewrites the first two itself; a delta-25 run's ckpt_75 and a
    # sweep are left to fresh_run_dir alone
    leftovers = [run_dir / name for name in ("ckpt_50.lpv.tmp", "loss_log.csv.tmp",
                                             "ckpt_75.lpv.tmp", "sweep.csv.tmp")]
    for path in leftovers:
        path.write_bytes(b"cut short")
    assert main(["train", *BASE, "--out", str(out)]) == 1
    assert "ckpt_50.lpv.tmp already exists" in capsys.readouterr().err
    assert main(["train", *BASE, "--force", "--out", str(out)]) == 0
    assert not any(path.exists() for path in leftovers)
    assert (run_dir / "ckpt_50.lpv").exists()


def test_a_thresholds_file_without_both_taus_is_refused_before_force_empties_a_run(tmp_path,
                                                                                   capsys):
    out = tmp_path / "exp"
    args = ["--task", "quad-bowl", "--seeds", "42", "--steps", "300", "--delta", "50",
            "--out", str(out)]
    assert main(["calibrate", *args, "--tau-low", "-0.999", "--tau-high", "-0.99"]) == 0
    assert main(["train", *args]) == 0
    thresholds = out / "thresholds.txt"
    thresholds.write_text("tau_low = -0.999\n")
    before = files_under(out)
    capsys.readouterr()
    assert main(["train", *args, "--force"]) == 1
    assert (capsys.readouterr().err
            == f"error: {thresholds}: expected tau_low and tau_high entries\n")
    assert files_under(out) == before


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


def test_a_calibration_that_cannot_succeed_is_refused_before_any_run(tmp_path, capsys,
                                                                     monkeypatch, cpus):
    cpus(1)  # so that a run would train in this process, where it is counted
    trained = []
    train_run = harness.train_run
    monkeypatch.setattr(harness, "train_run",
                        lambda *args, **kwargs: trained.append(args) or train_run(*args, **kwargs))
    out = tmp_path / "exp"
    # 100 // 50 = 2 checkpoints per run give 1 similarity; calibration needs 2
    short = ["--task", "quad-bowl", "--seeds", "42", "--steps", "100", "--delta", "50",
             "--out", str(out)]
    for command in ("calibrate", "run-all"):
        assert main([command, *short]) == 1
        assert capsys.readouterr().err == (
            "error: calibrate needs steps // delta >= 3, got steps=100, delta=50\n")
    assert trained == []
    assert not (out / "thresholds.txt").exists()


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


def output_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command, seeds", [("run-all", "42,43"), ("run-all", "42,43,44"),
                                            ("live", "42,43")])
def test_seeds_in_workers_write_and_print_what_the_inline_loop_does(command, seeds, tmp_path,
                                                                    capsys, cpus):
    # no taus are given, so calibration runs in workers too
    out = tmp_path / "out"
    argv = [command, "--task", "quad-bowl", "--seeds", seeds, "--steps", "300",
            "--delta", "50", "--out", str(out)]
    written = []
    for n in (len(seeds.split(",")), 1):
        cpus(n)
        shutil.rmtree(out, ignore_errors=True)
        assert main(argv) == 0
        written.append((output_files(out), capsys.readouterr().out))
    assert written[0] == written[1]
