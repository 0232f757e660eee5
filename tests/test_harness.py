from __future__ import annotations

import json
import math
import multiprocessing
import os
import re
import shutil
import signal
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leapverify import harness, trajectory, workers
from leapverify.config import RunConfig
from leapverify.engine import speculate, speculate_grid
from leapverify.harness import (
    SWEEP_CSV_HEADER,
    PassError,
    SweepCell,
    aggregate,
    build_hyper,
    build_task,
    calibrate_thresholds,
    each_seed,
    format_report_text,
    make_report,
    pass1_train,
    pass2_ksweep,
    pass3_cascades,
    ratio_table,
    read_cascade_rows,
    read_sweep_csv,
    replay_points,
    resolve_predictor,
    run_dir_for,
    run_experiment,
    sweep_formulas,
    write_cascade_rows,
    write_report,
    write_sweep_csv,
)
from leapverify.predict import FORMULAS
from leapverify.regime import RegimeLabel, Thresholds
from leapverify.trajectory import WindowSpacingError, save_checkpoint
from leapverify.verify import decide

from conftest import make_checkpoint
from test_golden import REPLAY, VARIANTS

PERMISSIVE = Thresholds(tau_low=-0.999, tau_high=-0.99)


def small_config(out) -> RunConfig:
    return RunConfig(
        task="quad-bowl", seeds=(42, 43), steps=300, delta=50,
        warmup_steps=20, noise=0.0, tau_low=-0.999, tau_high=-0.99,
        k_set=(5, 10, 25), cascades=((2, 25), (3, 10)), out=str(out),
    )


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = small_config(out)
    report = run_experiment(cfg)
    return cfg, report, out


def test_pass1_writes_run_directory(experiment):
    cfg, _, out = experiment
    for seed in cfg.seeds:
        run_dir = run_dir_for(out, "quad-bowl", seed)
        steps = sorted(int(p.stem.split("_")[1]) for p in run_dir.glob("ckpt_*.lpv"))
        assert steps == list(range(50, 301, 50))
        log_lines = (run_dir / "loss_log.csv").read_text().splitlines()
        assert log_lines[0] == "step,val_loss,similarity,regime"
        assert len(log_lines) == 1 + 6
        first = log_lines[1].split(",")
        assert first[0] == "50" and first[2] == "" and first[3] == "unknown"
        assert (run_dir / "sweep.csv").exists()
        assert (run_dir / "cascades.jsonl").exists()


def test_no_tmp_files_left_behind(experiment):
    _, _, out = experiment
    assert list(out.rglob("*.tmp")) == []


def test_pass1_rerun_is_bit_identical(experiment, tmp_path):
    cfg, _, out = experiment
    task = build_task(cfg)
    # rerun on a copy: a rerun clears the sweep outputs later tests read
    copy = shutil.copytree(out, tmp_path / "out")
    run_dir = run_dir_for(out, "quad-bowl", 42)
    before = {p.name: p.read_bytes() for p in run_dir.glob("ckpt_*.lpv")}
    before["loss_log.csv"] = (run_dir / "loss_log.csv").read_bytes()
    pass1_train(task, 42, cfg, PERMISSIVE, copy)
    for name, blob in before.items():
        assert (run_dir_for(copy, "quad-bowl", 42) / name).read_bytes() == blob


def test_pass1_clears_stale_checkpoints(experiment, tmp_path):
    cfg, _, out = experiment
    task = build_task(cfg)
    copy = shutil.copytree(out, tmp_path / "out")
    run_dir = run_dir_for(copy, "quad-bowl", 42)
    stale = run_dir / "ckpt_9999.lpv"
    save_checkpoint(make_checkpoint(9999, np.ones(task.param_dim)), stale)
    pass1_train(task, 42, cfg, PERMISSIVE, copy)
    assert not stale.exists()
    # the sweep and cascades of the replaced checkpoints go with them
    assert not (run_dir / "sweep.csv").exists()
    assert not (run_dir / "cascades.jsonl").exists()


def test_pass2_grid_is_rectangular(experiment):
    cfg, _, out = experiment
    cells = read_sweep_csv(run_dir_for(out, "quad-bowl", 42) / "sweep.csv", cfg.epsilon)
    # 6 non-chaotic checkpoints x 3 predictors x 3 horizons
    assert len(cells) == 6 * 3 * 3
    grid = {(c.checkpoint_step, c.predictor, c.k) for c in cells}
    assert len(grid) == len(cells)
    for step in range(50, 301, 50):
        for predictor in ("momentum", "linear", "quadratic"):
            for k in cfg.k_set:
                assert (step, predictor, k) in grid


def test_pass2_eligibility_ramps_with_history(experiment):
    cfg, _, out = experiment
    cells = read_sweep_csv(run_dir_for(out, "quad-bowl", 42) / "sweep.csv", cfg.epsilon)
    by_step = {}
    for c in cells:
        by_step.setdefault(c.checkpoint_step, {})[c.predictor, c.k] = c
    first = by_step[50]
    assert all(first["momentum", k].eligible for k in (5, 10, 25))
    assert not any(first[p, k].eligible for p in ("linear", "quadratic") for k in (5, 10, 25))
    second = by_step[100]
    assert second["linear", 5].eligible
    assert not second["quadratic", 5].eligible
    assert all(by_step[150][p, k].eligible for p in ("momentum", "linear", "quadratic")
               for k in (5, 10, 25))
    # placeholders carry no prediction and no decision
    ineligible = first["linear", 5]
    assert math.isnan(ineligible.l_hat)
    assert ineligible.decision is None
    assert math.isnan(ineligible.displacement_norm)


@pytest.mark.parametrize("replay", [
    lambda run_dir, task, hyper: pass2_ksweep(run_dir, task, hyper, k_set=(5,), epsilon=0.05),
    lambda run_dir, task, hyper: pass3_cascades(run_dir, task, hyper, configs=((2, 25),),
                                                criterion="strict", epsilon=0.05),
], ids=["pass2_ksweep", "pass3_cascades"])
def test_pass2_requires_even_checkpoint_spacing(tmp_path, replay):
    cfg = small_config(tmp_path)
    task = build_task(cfg)
    hyper = build_hyper(cfg, task)
    log = "step,val_loss,similarity,regime\n"
    for step in (50, 100, 200):
        save_checkpoint(make_checkpoint(step, np.ones(task.param_dim)),
                        tmp_path / f"ckpt_{step}.lpv")
        log += f"{step},1.0,,stable\n"
    (tmp_path / "loss_log.csv").write_text(log)
    with pytest.raises(WindowSpacingError):
        replay(tmp_path, task, hyper)


def test_replay_loads_only_the_windows_it_replays(tmp_path, monkeypatch):
    labels = ["chaotic", "chaotic", "chaotic", "stable", "chaotic", "chaotic"]
    log = "step,val_loss,similarity,regime\n"
    for i, label in enumerate(labels):
        step = 50 * (i + 1)
        save_checkpoint(make_checkpoint(step, np.ones(3), val_loss=1.0 + i),
                        tmp_path / f"ckpt_{step}.lpv")
        log += f"{step},{1.0 + i!r},,{label}\n"
    (tmp_path / "loss_log.csv").write_text(log)
    loaded = []
    load = harness.load_checkpoint
    monkeypatch.setattr(harness, "load_checkpoint", lambda path: loaded.append(path.name)
                        or load(path))
    (ckpt, label, window, delta, sigma), = replay_points(tmp_path, {RegimeLabel.STABLE}, 5)
    assert loaded == ["ckpt_100.lpv", "ckpt_150.lpv", "ckpt_200.lpv"]
    assert [c.step for c in window] == [100, 150, 200] and window[-1] is ckpt
    assert (label, delta) == (RegimeLabel.STABLE, 50)
    # step 50's loss counts too, read from the log: its checkpoint was not loaded
    assert sigma == float(np.std([1.0, 2.0, 3.0, 4.0], ddof=1))


def test_replay_holds_no_more_than_a_window_of_checkpoints(tmp_path, monkeypatch):
    labels = ["unknown", "stable", "chaotic", "stable", "transition", "transition",
              "chaotic", "chaotic", "chaotic", "stable", "stable", "stable"]
    log = "step,val_loss,similarity,regime\n"
    for i, label in enumerate(labels):
        step = 50 * (i + 1)
        save_checkpoint(make_checkpoint(step, np.full(3, float(i))), tmp_path / f"ckpt_{step}.lpv")
        log += f"{step},1.0,,{label}\n"
    (tmp_path / "loss_log.csv").write_text(log)
    loaded, refs = [], []
    load = harness.load_checkpoint

    def counted_load(path):
        ckpt = load(path)
        loaded.append(ckpt.step)
        refs.append(weakref.ref(ckpt))
        return ckpt

    monkeypatch.setattr(harness, "load_checkpoint", counted_load)
    keep = {RegimeLabel.STABLE, RegimeLabel.TRANSITION}
    windows, alive = [], []
    for point in replay_points(tmp_path, keep, 5):
        alive.append(sum(ref() is not None for ref in refs))
        windows.append([c.step for c in point[2]])
        del point
    assert windows == [[50, 100], [100, 150, 200], [150, 200, 250], [200, 250, 300],
                       [400, 450, 500], [450, 500, 550], [500, 550, 600]]
    assert loaded == sorted(set(loaded)) == sorted({s for w in windows for s in w})
    assert max(alive) == trajectory.WINDOW_CAPACITY


GRID_KS = (5, 10, 25, 50, 75, 100)


def assert_same_loss(got: float, want: float) -> None:
    """Equal NaN-ness and infinities; finite values within 1e-12 relative."""
    if math.isfinite(want):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)
    else:
        assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)


def assert_grid_matches_speculate(window, delta, formulas, task, hyper) -> list[list[float]]:
    """speculate_grid's predictions are speculate()'s bit for bit, its losses to 1e-12.

    Scored together, the formulas' losses equal, bit for bit, each formula's
    scored alone: a shared first-layer product is the same floats.
    """
    grids = speculate_grid(window, delta, formulas, GRID_KS, task, hyper)
    assert len(grids) == len(formulas)
    for formula, (preds, losses) in zip(formulas, grids):
        (_, alone), = speculate_grid(window, delta, [formula], GRID_KS, task, hyper)
        assert np.array_equal(losses, alone, equal_nan=True)
        for k, pred, l_hat in zip(GRID_KS, preds, losses):
            want, want_loss = speculate(window, delta, formula, k, task, hyper)
            assert (pred.predictor, pred.k, pred.finite) == (want.predictor, want.k, want.finite)
            assert pred.theta_hat.tobytes() == want.theta_hat.tobytes()
            assert pred.displacement_norm == want.displacement_norm
            assert_same_loss(l_hat, want_loss)
    return [losses for _, losses in grids]


@pytest.mark.parametrize("task_name", ["mlp-reg", "char-seq", "quad-bowl"])
def test_pass2_grid_matches_per_cell_speculation(tmp_path, task_name):
    cfg = RunConfig(task=task_name, seeds=(42,), steps=100, delta=25, warmup_steps=10,
                    k_set=GRID_KS, out=str(tmp_path))
    task = build_task(cfg)
    hyper = build_hyper(cfg, task)
    run_dir = run_dir_for(tmp_path, task_name, 42)
    pass1_train(task, 42, cfg, PERMISSIVE, tmp_path)
    formulas = tuple(FORMULAS)
    cells = iter(pass2_ksweep(run_dir, task, hyper, k_set=GRID_KS, epsilon=cfg.epsilon,
                              formulas=formulas))
    windows = set()
    for ckpt, _, window, delta, sigma in replay_points(run_dir, set(RegimeLabel), 5):
        windows.add(len(window))
        assert_grid_matches_speculate(
            window, delta, [f for f in formulas if len(window) >= FORMULAS[f].history],
            task, hyper)
        for formula in formulas:
            usable = len(window) >= FORMULAS[formula].history
            for k in GRID_KS:
                cell = next(cells)
                assert (cell.checkpoint_step, cell.k, cell.eligible) == (ckpt.step, k, usable)
                if not usable:  # placeholders stay placeholders
                    assert math.isnan(cell.l_hat) and math.isnan(cell.displacement_norm)
                    assert cell.decision is None
                    continue
                pred, l_hat = speculate(window, delta, formula, k, task, hyper)
                want = decide(l_hat, ckpt.val_loss, sigma, cfg.epsilon)
                assert_same_loss(cell.l_hat, l_hat)
                assert cell.displacement_norm == pred.displacement_norm
                assert ((cell.decision.strict, cell.decision.adaptive, cell.decision.proximity)
                        == (want.strict, want.adaptive, want.proximity))
    assert next(cells, None) is None
    assert windows == {1, 2, 3}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_grid_scores_a_non_finite_momentum_prediction_nan():
    task = build_task(RunConfig(task="mlp-reg"))
    hyper = build_hyper(RunConfig(task="mlp-reg"), task)
    m, v = np.zeros(task.param_dim), np.zeros(task.param_dim)
    m[3] = 1e299  # a W1 entry: unit 1e307 there, so K >= 25 overflows
    ckpt = make_checkpoint(100, task.init_params(1), val_loss=0.5, m=m, v=v)
    losses, = assert_grid_matches_speculate([ckpt], 25, ["momentum"], task, hyper)
    assert [math.isnan(x) for x in losses] == [False, False, True, True, True, True]


def test_pass2_missing_run_dir(tmp_path):
    cfg = small_config(tmp_path)
    task = build_task(cfg)
    with pytest.raises(FileNotFoundError):
        pass2_ksweep(tmp_path / "nowhere", task, build_hyper(cfg, task),
                     k_set=(5,), epsilon=0.05)


def test_pass2_quad_variant_changes_the_formula(experiment):
    cfg, _, out = experiment
    task = build_task(cfg)
    hyper = build_hyper(cfg, task)
    run_dir = run_dir_for(out, "quad-bowl", 42)
    paper = pass2_ksweep(run_dir, task, hyper, k_set=(25,), epsilon=cfg.epsilon)
    exact = pass2_ksweep(run_dir, task, hyper, k_set=(25,), epsilon=cfg.epsilon,
                         formulas=sweep_formulas(replace(cfg, quad_variant="exact")))
    paper_q = {c.checkpoint_step: c for c in paper if c.predictor == "quadratic" and c.eligible}
    exact_q = {c.checkpoint_step: c for c in exact if c.predictor == "quadratic" and c.eligible}
    assert set(paper_q) == set(exact_q) != set()
    assert any(paper_q[s].l_hat != exact_q[s].l_hat for s in paper_q)
    # the variant never leaks into other predictors
    paper_rest = [c for c in paper if c.predictor != "quadratic"]
    exact_rest = [c for c in exact if c.predictor != "quadratic"]
    for a, b in zip(paper_rest, exact_rest):
        assert (a.seed, a.checkpoint_step, a.predictor, a.k, a.eligible) == \
            (b.seed, b.checkpoint_step, b.predictor, b.k, b.eligible)
        if a.eligible:
            assert a.l_hat == b.l_hat


def test_make_report_reads_no_checkpoint(experiment, tmp_path, monkeypatch, cpus):
    cfg, _, out = experiment
    cpus(1)  # so that every load happens in this process, where it is counted
    copy = shutil.copytree(out, tmp_path / "out")
    loads = []
    load = trajectory.load_checkpoint
    monkeypatch.setattr(trajectory, "load_checkpoint", lambda path: loads.append(path) or load(path))
    report = make_report(replace(cfg, out=str(copy)))
    assert loads == []
    assert (copy / "report.txt").read_bytes() == (out / "report.txt").read_bytes()
    # the labels come from loss_log.csv
    assert report["regime_counts"]["42"] == {"unknown": 1, "chaotic": 0, "transition": 0,
                                             "stable": 5}


@pytest.mark.parametrize("stage", ["pass2 (sweep)", "pass3 (cascade)", "report"])
def test_unfinished_runs_are_refused(experiment, tmp_path, stage):
    cfg, _, out = experiment
    copy = shutil.copytree(out, tmp_path / "out")
    cfg, task = replace(cfg, out=str(copy)), build_task(cfg)
    run_dir = run_dir_for(copy, "quad-bowl", 43)
    passes = {"pass2 (sweep)": lambda: list(each_seed([harness.sweep_pass(cfg, task, copy)],
                                                      cfg.seeds)),
              "pass3 (cascade)": lambda: list(each_seed([harness.cascade_pass(cfg, task, copy)],
                                                        cfg.seeds)),
              "report": lambda: make_report(cfg)}
    # a crashed pass 1 stored checkpoints but no loss_log.csv
    log = (run_dir / "loss_log.csv").read_bytes()
    (run_dir / "loss_log.csv").unlink()
    with pytest.raises(PassError, match=rf"{re.escape(stage)} failed for seed 43: "
                                         rf".*{re.escape(str(run_dir / 'loss_log.csv'))} missing"):
        passes[stage]()
    # a loss log that lists other steps than the checkpoint files
    (run_dir / "loss_log.csv").write_bytes(log)
    (run_dir / "ckpt_300.lpv").unlink()
    with pytest.raises(PassError, match=rf"{re.escape(stage)} failed for seed 43: .*loss_log.csv "
                                         r"and the checkpoint files disagree at step 300"):
        passes[stage]()


def test_pass3_rows_start_from_stable_checkpoints(experiment):
    cfg, _, out = experiment
    rows = read_cascade_rows(run_dir_for(out, "quad-bowl", 42) / "cascades.jsonl", cfg.epsilon)
    assert rows
    stable_steps = set(range(100, 301, 50))  # first checkpoint is unknown
    for row in rows:
        assert row.start_step in stable_steps
        assert row.criterion == cfg.criterion
        assert 0 <= row.accepted_depth <= row.depth
        assert (row.depth, row.k) in cfg.cascades
        assert row.seed == 42
    # quadratic needs three checkpoints, so it cannot start at step 100
    assert not any(r.predictor == "quadratic" and r.start_step == 100 for r in rows)
    assert any(r.predictor == "momentum" and r.start_step == 100 for r in rows)


def test_pass3_without_stable_checkpoints(tmp_path):
    cfg = small_config(tmp_path)
    task = build_task(cfg)
    # tau_high = 1.0 is unreachable for a cosine, so nothing is ever stable
    pass1_train(task, 42, cfg, Thresholds(0.5, 1.0), tmp_path)
    list(each_seed([harness.sweep_pass(cfg, task, tmp_path)], (42,)))
    rows = pass3_cascades(run_dir_for(tmp_path, "quad-bowl", 42), task,
                          build_hyper(cfg, task), configs=cfg.cascades,
                          criterion="strict", epsilon=cfg.epsilon)
    assert rows == []
    report = aggregate([], rows, {42: [RegimeLabel.TRANSITION]}, {})
    assert report["cascades"] == []
    assert "zero denominators" in report["cascade_note"]


def cascade_over_a_sweep(experiment, tmp_path, formulas, k_set, cascade_cfg=None, scored=None):
    """Pass 3 over a copy of seed 42's run, swept at `formulas` and `k_set`.

    Pass 3 runs at the settings of `cascade_cfg`, by default the experiment's.
    When `scored` is given, pass 3's held-out forwards are appended to it.
    """
    cfg, _, out = experiment
    task = build_task(cfg)
    hyper = build_hyper(cfg, task)
    run_dir = shutil.copytree(run_dir_for(out, "quad-bowl", 42), tmp_path / "42")
    write_sweep_csv(pass2_ksweep(run_dir, task, hyper, k_set=k_set, epsilon=cfg.epsilon,
                                 formulas=formulas), run_dir / "sweep.csv")
    if scored is not None:
        validation_loss = task.validation_loss
        task.validation_loss = lambda theta: scored.append(theta) or validation_loss(theta)
    cfg = cascade_cfg or cfg
    return pass3_cascades(run_dir, task, hyper, configs=cfg.cascades, criterion=cfg.criterion,
                          epsilon=cfg.epsilon, formulas=sweep_formulas(cfg))


def test_pass3_reads_stage_one_from_the_sweep(experiment, tmp_path):
    cfg, _, _ = experiment
    rows = cascade_over_a_sweep(experiment, tmp_path, sweep_formulas(cfg), cfg.k_set)
    cells = {(c.checkpoint_step, c.predictor, c.k): c
             for c in read_sweep_csv(tmp_path / "42" / "sweep.csv", cfg.epsilon)}
    assert rows
    for row in rows:
        cell, first = cells[row.start_step, row.predictor, row.k], row.events[0]
        assert (first.stage, first.decision.l_hat) == (1, cell.l_hat)
        assert first.displacement_norm == cell.displacement_norm


def test_pass3_refuses_a_sweep_without_its_cell(experiment, tmp_path):
    cfg, _, _ = experiment
    # a sweep left from another k_set: the 2x25 cascade finds no K=25 cell
    with pytest.raises(ValueError, match=r"sweep.csv has no cell for step 100, "
                                         r"predictor momentum, K=25"):
        cascade_over_a_sweep(experiment, tmp_path, sweep_formulas(cfg), (5, 10))


def test_pass3_refuses_a_sweep_of_another_formula(experiment, tmp_path):
    cfg, _, _ = experiment
    exact = sweep_formulas(replace(cfg, quad_variant="exact"))
    with pytest.raises(ValueError, match=r"sweep.csv holds another prediction at step 150, "
                                         r"predictor quadratic, K=25"):
        cascade_over_a_sweep(experiment, tmp_path, exact, cfg.k_set)


def test_pass3_refuses_another_formula_before_scoring_any_stage(experiment, tmp_path):
    cfg, _, _ = experiment
    # under the adaptive criterion a linear cascade from step 100 passes stage 1, so
    # its later stages would be scored before the first quadratic cell, at step 150
    adaptive = replace(cfg, criterion="adaptive")
    rows = cascade_over_a_sweep(experiment, tmp_path / "paper", sweep_formulas(cfg), cfg.k_set,
                                adaptive)
    assert any(r.start_step == 100 and r.accepted_depth > 0 for r in rows)
    scored = []
    with pytest.raises(ValueError, match="holds another prediction at step 150"):
        cascade_over_a_sweep(experiment, tmp_path / "exact",
                             sweep_formulas(replace(cfg, quad_variant="exact")), cfg.k_set,
                             adaptive, scored)
    assert scored == []


def test_waiting_cascades_hold_no_adam_moments(experiment, tmp_path, monkeypatch):
    cfg, _, _ = experiment
    moments = []
    load = harness.load_checkpoint

    def tracked_load(path):
        ckpt = load(path)
        moments.extend((weakref.ref(ckpt.m), weakref.ref(ckpt.v)))
        return ckpt

    alive = []
    walk = harness.run_cascade

    def counted_walk(start, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in moments))
        return walk(start, *args, **kwargs)

    monkeypatch.setattr(harness, "load_checkpoint", tracked_load)
    monkeypatch.setattr(harness, "run_cascade", counted_walk)
    adaptive = replace(cfg, criterion="adaptive")
    rows = cascade_over_a_sweep(experiment, tmp_path, sweep_formulas(cfg), cfg.k_set, adaptive)
    waited = {r.start_step for r in rows if r.depth > 1 and r.accepted_depth > 0}
    assert len(waited) > trajectory.WINDOW_CAPACITY
    # the cascades run last are the waiting ones: only the last window's moments are left
    assert alive[-1] <= 2 * trajectory.WINDOW_CAPACITY


def test_a_cascade_k_outside_the_k_set_is_refused_before_any_work(tmp_path):
    cfg = replace(small_config(tmp_path), tau_low=None, tau_high=None, k_set=(5, 10))
    refusal = r"^cascade 2x25: K=25 is not in k_set 5,10$"
    # before run-all calibrates, and before pass 3 looks at a seed
    with pytest.raises(ValueError, match=refusal):
        run_experiment(cfg)
    with pytest.raises(ValueError, match=refusal):
        harness.cascade_pass(cfg, build_task(cfg), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_sweep_csv_header_and_round_trip(experiment):
    cfg, _, out = experiment
    path = run_dir_for(out, "quad-bowl", 42) / "sweep.csv"
    assert path.read_text().splitlines()[0] == SWEEP_CSV_HEADER
    cells = read_sweep_csv(path, cfg.epsilon)
    rewritten = out / "rewritten.csv"
    write_sweep_csv(cells, rewritten)
    again = read_sweep_csv(rewritten, cfg.epsilon)
    assert len(again) == len(cells)
    for a, b in zip(cells, again):
        assert (a.seed, a.checkpoint_step, a.regime, a.predictor, a.k) == \
            (b.seed, b.checkpoint_step, b.regime, b.predictor, b.k)
        assert a.eligible == b.eligible
        if a.eligible:
            assert a.l_hat == b.l_hat  # repr round trip is exact
            assert a.l_t == b.l_t
            assert a.displacement_norm == b.displacement_norm
            for criterion in ("strict", "adaptive", "proximity"):
                assert a.decision.verdict(criterion) == b.decision.verdict(criterion)
        else:
            assert math.isnan(b.l_hat)
            assert b.decision is None


def test_sweep_csv_reads_only_the_eligible_cells_of_one_regime(experiment):
    cfg, _, out = experiment
    path = run_dir_for(out, "quad-bowl", 42) / "sweep.csv"
    cells = read_sweep_csv(path, cfg.epsilon)
    stable = [c for c in cells if c.eligible and c.regime is RegimeLabel.STABLE]
    # the run holds cells of another regime and ineligible stable cells
    assert len(stable) < sum(c.regime is RegimeLabel.STABLE for c in cells) < len(cells)
    assert read_sweep_csv(path, cfg.epsilon, regime=RegimeLabel.STABLE) == stable


def test_sweep_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("seed,step,regime\n1,50,stable\n")
    with pytest.raises(ValueError):
        read_sweep_csv(path, 0.05)


def test_cascade_rows_round_trip(experiment):
    cfg, _, out = experiment
    path = run_dir_for(out, "quad-bowl", 42) / "cascades.jsonl"
    rows = read_cascade_rows(path, cfg.epsilon)
    rewritten = out / "cascades_rewritten.jsonl"
    write_cascade_rows(rows, rewritten)
    again = read_cascade_rows(rewritten, cfg.epsilon)
    assert again == rows
    assert all(r.events == () for r in again)
    with pytest.raises(ValueError, match=rf"scored under epsilon {cfg.epsilon}, not the "
                                         r"configured 0.5; run the cascade pass again"):
        read_cascade_rows(path, 0.5)


def _cell(seed, step, k, l_hat, *, predictor="momentum", l_t=1.0, sigma=0.5,
          regime=RegimeLabel.STABLE):
    return SweepCell(
        seed=seed, checkpoint_step=step, regime=regime, predictor=predictor,
        k=k, l_hat=l_hat, l_t=l_t, decision=decide(l_hat, l_t, sigma, 0.05),
        displacement_norm=1.0, eligible=True)


def test_aggregate_rate_identity():
    # seed 1 accepts 1 of 2 under strict, seed 2 accepts 2 of 2
    cells = [
        _cell(1, 50, 5, 0.5), _cell(1, 100, 5, 2.0),
        _cell(2, 50, 5, 0.5), _cell(2, 100, 5, 0.25),
    ]
    report = aggregate(cells, [], {1: [], 2: []}, {})
    stat = report["acceptance"]["stable|momentum|5|strict"]
    assert [(p["seed"], p["accepted"], p["denominator"]) for p in stat["per_seed"]] == \
        [(1, 1, 2), (2, 2, 2)]
    for p in stat["per_seed"]:
        assert p["rate"] == 100.0 * p["accepted"] / p["denominator"]
    assert stat["mean"] == pytest.approx((50.0 + 100.0) / 2.0)
    assert stat["accepted"] == 3
    assert stat["denominator"] == 4
    assert not stat["single_seed"]


def test_aggregate_identical_rates_have_zero_cov():
    cells = [
        _cell(1, 50, 5, 0.5), _cell(1, 100, 5, 2.0),
        _cell(2, 50, 5, 0.5), _cell(2, 100, 5, 2.0),
    ]
    report = aggregate(cells, [], {1: [], 2: []}, {})
    stat = report["cov"]["momentum|5|strict"]
    assert stat["std"] == 0.0
    assert stat["cov"] == 0.0


def test_aggregate_cov_undefined_at_zero_mean():
    cells = [_cell(1, 50, 5, 2.0), _cell(2, 50, 5, 3.0)]
    report = aggregate(cells, [], {1: [], 2: []}, {})
    stat = report["cov"]["momentum|5|strict"]
    assert stat["mean"] == 0.0
    assert stat["cov"] is None


def test_aggregate_is_order_invariant():
    cells = [
        _cell(1, 50, 5, 0.5), _cell(1, 100, 10, 2.0),
        _cell(2, 50, 5, 0.8, predictor="linear"), _cell(2, 100, 10, 0.2),
    ]
    labels = {1: [RegimeLabel.STABLE], 2: [RegimeLabel.CHAOTIC]}
    a = aggregate(cells, [], labels, {})
    b = aggregate(list(reversed(cells)), [], dict(reversed(labels.items())), {})
    assert a == b


def test_aggregate_single_seed_note():
    report = aggregate([_cell(1, 50, 5, 0.5)], [], {1: [RegimeLabel.STABLE]}, {})
    assert any("single seed" in note for note in report["notes"])
    stat = report["acceptance"]["stable|momentum|5|strict"]
    assert stat["single_seed"]
    assert stat["std"] == 0.0


def test_aggregate_skips_unevaluable_adaptive():
    cells = [_cell(1, 50, 5, 0.5, sigma=None)]
    report = aggregate(cells, [], {1: []}, {})
    assert "stable|momentum|5|strict" in report["acceptance"]
    assert "stable|momentum|5|adaptive" not in report["acceptance"]


def _report_files(report_dir) -> tuple[dict, str]:
    """report.json's document and report.txt's text."""
    return (json.loads((report_dir / "report.json").read_text()),
            (report_dir / "report.txt").read_text())


@pytest.mark.parametrize("variants", sorted(VARIANTS))
def test_report_txt_is_rendered_from_report_json_alone(variants, tmp_path):
    momentum_variant, quad_variant = VARIANTS[variants]
    run_experiment(replace(REPLAY, momentum_variant=momentum_variant,
                           quad_variant=quad_variant, out=str(tmp_path)))
    document, text = _report_files(tmp_path)
    assert format_report_text(document) == text


def test_report_txt_is_rendered_from_report_json_alone_on_notes(tmp_path):
    single_seed = aggregate([_cell(1, 50, 5, 0.5)], [], {1: [RegimeLabel.STABLE]}, {})
    assert single_seed["notes"]
    transition = RegimeLabel.TRANSITION
    no_stable = aggregate([_cell(1, 50, 5, 0.5, regime=transition),
                           _cell(2, 50, 5, 2.0, regime=transition)], [],
                          {1: [transition], 2: [transition]}, {})
    assert no_stable["cascade_note"] and not no_stable["notes"]
    for name, report in (("single-seed", single_seed), ("no-stable", no_stable)):
        write_report(report, tmp_path / name)
        document, text = _report_files(tmp_path / name)
        assert format_report_text(document) == text


def test_ratio_table_perfect_prediction():
    cells = [_cell(1, 50, 5, 1.0), _cell(1, 100, 5, 1.0)]
    (row,) = ratio_table(cells, "momentum")
    assert row["k"] == 5
    assert row["n"] == 2
    assert row["ratio"] == pytest.approx(1.0)
    assert row["excluded_nonfinite"] == 0


def test_ratio_table_excludes_nonfinite():
    cells = [
        _cell(1, 50, 5, 2.0), _cell(1, 100, 5, 2.0),
        _cell(1, 150, 5, float("inf")),
    ]
    (row,) = ratio_table(cells, "momentum")
    assert row["n"] == 2
    assert row["excluded_nonfinite"] == 1
    assert row["ratio"] == pytest.approx(2.0)


def test_ratio_table_all_nonfinite_and_empty():
    cells = [_cell(1, 50, 5, float("nan"))]
    (row,) = ratio_table(cells, "momentum")
    assert row["n"] == 0
    assert row["excluded_nonfinite"] == 1
    assert row["ratio"] is None
    assert ratio_table([], "momentum") == []


def test_resolve_predictor_variants():
    assert resolve_predictor("quadratic", "exact") == "quadratic_exact"
    assert resolve_predictor("quadratic", "paper") == "quadratic"
    assert resolve_predictor("momentum", "exact") == "momentum"
    assert resolve_predictor("linear", "exact") == "linear"
    assert resolve_predictor("momentum", "paper", "descent") == "momentum_descent"
    assert resolve_predictor("quadratic", "paper", "descent") == "quadratic"
    # formula names resolve to themselves, so resolving twice is harmless
    for formula in ("momentum_descent", "quadratic_exact"):
        assert resolve_predictor(formula) == formula
        assert resolve_predictor(formula, "exact", "descent") == formula
    for bad in (("oracle", "paper", "paper"), ("linear", "cubic", "paper"),
                ("momentum", "paper", "nesterov")):
        with pytest.raises(ValueError):
            resolve_predictor(*bad)


def test_sweep_formulas_follow_the_variants():
    assert sweep_formulas(RunConfig()) == ("momentum", "linear", "quadratic")
    assert sweep_formulas(RunConfig(momentum_variant="descent", quad_variant="exact")) == (
        "momentum_descent", "linear", "quadratic_exact")


def test_calibrate_thresholds_produces_valid_band(tmp_path):
    cfg = RunConfig(task="quad-bowl", seeds=(42,), steps=300, delta=50,
                    warmup_steps=20, out=str(tmp_path))
    th = calibrate_thresholds(cfg)
    assert -1.0 <= th.tau_low < th.tau_high <= 1.0


def test_report_files_and_shape(experiment):
    cfg, report, out = experiment
    assert report["seeds"] == [42, 43]
    data = json.loads((out / "report.json").read_text())
    assert data["seeds"] == [42, 43]
    # effective config echoes resolved values, not the None placeholders
    assert data["config"]["lr"] == 0.05
    assert data["config"]["tau_low"] == -0.999
    for key in data["acceptance"]:
        regime, predictor, k, criterion = key.split("|")
        assert regime in ("unknown", "chaotic", "transition", "stable")
        assert predictor in ("momentum", "linear", "quadratic")
        assert int(k) in cfg.k_set
        assert criterion in ("strict", "adaptive", "proximity")
    for stat in data["acceptance"].values():
        assert stat["denominator"] > 0
        assert len(stat["per_seed"]) >= 1
    text = (out / "report.txt").read_text()
    assert "Regime breakdown" in text
    assert "Acceptance rate %" in text
    assert "Cascades" in text
    config_text = (out / "config.txt").read_text()
    assert "task = quad-bowl" in config_text
    assert "lr = 0.05" in config_text


def test_report_regime_counts(experiment):
    cfg, report, _ = experiment
    for seed in cfg.seeds:
        counts = report["regime_counts"][str(seed)]
        assert sum(counts.values()) == 6
        assert counts["unknown"] == 1
    assert report["regime_summary"]["unknown"]["mean"] == 1.0
    assert report["regime_summary"]["unknown"]["std"] == 0.0


def test_run_experiment_raises_a_failure_once_the_jobs_before_it_are_done(tmp_path,
                                                                          monkeypatch):
    def failing_sweep(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(harness, "pass2_ksweep", failing_sweep)
    with pytest.raises(PassError, match=r"pass2 \(sweep\) failed for seed 42: injected"):
        run_experiment(small_config(tmp_path))
    # every seed's pass 1 comes before seed 42's pass 2 in (pass, seed) order, so it finished
    for seed in (42, 43):
        assert (run_dir_for(tmp_path, "quad-bowl", seed) / "loss_log.csv").exists()


def test_the_pipeline_writes_what_the_passes_write_inline(tmp_path, cpus):
    # on two CPUs a worker sweeps and cascades seeds the other worker trained
    out = tmp_path / "out"
    written = []
    for n in (2, 1):
        cpus(n)
        shutil.rmtree(out, ignore_errors=True)
        run_experiment(replace(small_config(out), seeds=(42, 43, 44, 45, 46)))
        written.append({p.relative_to(out): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    assert Path("report.txt") in written[0]
    assert written[0] == written[1]


def test_pass_error_is_a_runtime_error():
    assert issubclass(PassError, RuntimeError)



# ------------------------------------------------------ each_seed's workers

def test_each_seed_yields_in_seed_order_when_the_first_seed_finishes_last(cpus):
    cpus(2)

    def finish(seed):
        time.sleep(0.5 if seed == 1 else 0.0)
        return os.getpid(), time.monotonic()

    (_, first, (pid1, done1)), (_, second, (pid2, done2)) = each_seed([("test", finish)], (1, 2))
    assert (first, second) == (1, 2)
    assert os.getpid() not in (pid1, pid2) and pid1 != pid2
    assert done2 < done1


def test_a_seed_failing_in_a_worker_raises_what_it_raises_inline(cpus):
    def fail_at_two(seed):
        if seed == 2:
            raise ValueError(f"nothing to train at seed {seed}")
        return seed

    errors = []
    for n in (3, 1):
        cpus(n)
        with pytest.raises(PassError) as info:
            list(each_seed([("pass1 (train)", fail_at_two)], (1, 2, 3)))
        errors.append(info.value)
        assert multiprocessing.active_children() == []
    for error in errors:
        assert str(error) == "pass1 (train) failed for seed 2: nothing to train at seed 2"
        assert type(error.__cause__) is ValueError
        assert str(error.__cause__) == "nothing to train at seed 2"


def test_closing_each_seed_early_leaves_no_worker(cpus):
    cpus(2)
    seeds = each_seed([("test", lambda seed: time.sleep(0.1 * seed) or seed)], (1, 2, 3, 4))
    assert next(seeds) == ("test", 1, 1)
    seeds.close()
    assert multiprocessing.active_children() == []


def test_one_seed_and_the_seeds_of_a_worker_run_inline(cpus):
    cpus(4)
    parent = os.getpid()
    assert list(each_seed([("test", lambda seed: os.getpid())], (7,))) == [("test", 7, parent)]

    def inner_pids(seed):
        return os.getpid(), [pid for _, _, pid in each_seed([("inner", lambda s: os.getpid())],
                                                            (1, 2))]

    for _, _, (worker, pids) in each_seed([("outer", inner_pids)], (1, 2)):
        assert worker != parent and pids == [worker, worker]


def test_a_worker_killed_mid_seed_fails_that_seed(cpus):
    cpus(2)

    def killed_at_one(seed):
        if seed == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return seed

    began = time.monotonic()
    with pytest.raises(PassError, match=r"^pass1 \(train\) failed for seed 1: "
                                        r"worker exited with code -9$"):
        list(each_seed([("pass1 (train)", killed_at_one)], (1, 2, 3)))
    assert time.monotonic() - began < 10
    assert multiprocessing.active_children() == []


def test_an_idle_worker_takes_the_next_seed(cpus):
    cpus(2)

    def pid(seed):
        time.sleep(0.5 if seed == 1 else 0.0)
        return os.getpid()

    pids = {seed: worker for _, seed, worker in each_seed([("test", pid)], (1, 2, 3))}
    assert pids[3] == pids[2] != pids[1]


def test_a_later_pass_does_not_wait_for_the_slowest_seed_of_a_pass(cpus):
    cpus(2)

    def train(seed):
        time.sleep(1.0 if seed == 3 else 0.0)
        return time.monotonic()

    ended = {(stage, seed): at for stage, seed, at in
             each_seed([("train", train), ("sweep", lambda seed: time.monotonic())], (1, 2, 3))}
    assert max(ended["sweep", 1], ended["sweep", 2]) < ended["train", 3]


def test_a_failed_job_s_later_passes_never_start(cpus, tmp_path):
    def train(seed):
        if seed == 2:
            time.sleep(0.3)  # while the other worker may sweep seeds 1 and 3
            raise ValueError("diverged")

    def sweep(seed):
        (tmp_path / str(seed)).touch()

    for n in (2, 1):
        cpus(n)
        with pytest.raises(PassError, match=r"^pass1 \(train\) failed for seed 2: diverged$"):
            list(each_seed([("pass1 (train)", train), ("pass2 (sweep)", sweep)], (1, 2, 3)))
        assert not (tmp_path / "2").exists()
        assert multiprocessing.active_children() == []


def test_a_worker_killed_holding_a_later_pass_fails_that_job(cpus):
    cpus(2)

    def killed_at_two(seed):
        if seed == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return seed

    began = time.monotonic()
    with pytest.raises(PassError, match=r"^pass2 \(sweep\) failed for seed 2: "
                                        r"worker exited with code -9$"):
        list(each_seed([("pass1 (train)", lambda seed: seed), ("pass2 (sweep)", killed_at_two)],
                       (1, 2, 3)))
    assert time.monotonic() - began < 10
    assert multiprocessing.active_children() == []


def test_results_arrive_in_pass_and_seed_order(cpus):
    cpus(2)

    def slow_first(seed):
        time.sleep(0.3 if seed == 1 else 0.0)
        return seed

    passes = [("pass1 (train)", slow_first), ("pass2 (sweep)", lambda seed: -seed),
              ("pass3 (cascade)", slow_first)]
    assert list(each_seed(passes, (1, 2, 3))) == [
        (stage, seed, seed if stage != "pass2 (sweep)" else -seed)
        for stage, _ in passes for seed in (1, 2, 3)]


def test_a_worker_killed_at_its_second_seed_fails_that_seed(cpus):
    cpus(2)

    def killed_at_three(seed):
        if seed == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return seed

    began = time.monotonic()
    with pytest.raises(PassError, match=r"^pass1 \(train\) failed for seed 3: "
                                        r"worker exited with code -9$"):
        list(each_seed([("pass1 (train)", killed_at_three)], (1, 2, 3)))
    assert time.monotonic() - began < 10
    assert multiprocessing.active_children() == []


def test_a_worker_runs_numpy_s_openblas_on_one_thread(cpus):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas:
        pytest.skip(f"numpy is built with {blas}, not OpenBLAS")
    cpus(2)
    assert list(each_seed([("test", lambda seed: workers.one_blas_thread())], (1, 2))) == [
        ("test", 1, True), ("test", 2, True)]
