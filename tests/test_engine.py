from __future__ import annotations

import json
import math
import multiprocessing
import os
import pickle
import signal
import time
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from leapverify import engine, trajectory, workers
from leapverify.engine import (
    FF_POLICIES,
    RunDivergedError,
    SpeculationSettings,
    accepted_depth,
    leap_or_continue,
    run_cascade,
    speculate,
    train_run,
)
from leapverify.optim import AdamHyper
from leapverify.predict import (
    FORMULAS,
    LINEAR,
    MOMENTUM_VARIANTS,
    InsufficientHistoryError,
    predict,
)
from leapverify.regime import RegimeLabel, Thresholds
from leapverify.tasks import BATCH_BLOCK, TASK_NAMES, QuadBowl, TanhNetwork, make_task
from leapverify.trajectory import (
    WINDOW_CAPACITY,
    finish_checkpoint,
    load_checkpoint,
    load_run_checkpoints,
)
from leapverify.verify import decide

from conftest import make_checkpoint

# labels everything after the first checkpoint stable (similarities are ~1)
PERMISSIVE = Thresholds(tau_low=-0.999, tau_high=-0.99)


def smooth_bowl():
    task = make_task("quad-bowl", noise=0.0)
    hyper = AdamHyper(lr=task.recommended_lr, warmup_steps=20, total_steps=500)
    return task, hyper


def test_constant_tables():
    assert FF_POLICIES == ("carry", "decay")
    assert MOMENTUM_VARIANTS == ("paper", "descent")


def test_eligibility_follows_history_requirements():
    task, hyper = smooth_bowl()
    window = [make_checkpoint(50 * (i + 1), task.init_params(i)) for i in range(3)]
    needed = {"momentum": 1, "momentum_descent": 1, "linear": 2,
              "quadratic": 3, "quadratic_exact": 3}
    for formula, history in needed.items():
        for size in (1, 2, 3):
            if size >= history:
                pred, _ = speculate(window[-size:], 50, formula, 10, task, hyper)
                assert pred.predictor == formula
            else:
                with pytest.raises(InsufficientHistoryError):
                    speculate(window[-size:], 50, formula, 10, task, hyper)


def test_speculate_validates_inputs():
    task, hyper = smooth_bowl()
    ck = make_checkpoint(50, task.init_params(0))
    with pytest.raises(ValueError):
        speculate([ck], 50, "oracle", 10, task, hyper)
    with pytest.raises(ValueError):
        speculate([ck], 50, "descent", 10, task, hyper)  # a variant, not a formula
    with pytest.raises(InsufficientHistoryError):
        speculate([ck], 50, "linear", 10, task, hyper)


def test_speculate_scores_prediction_on_held_out_set(tmp_path):
    task, hyper = smooth_bowl()
    train_run(task, 42, total_steps=150, delta=50, hyper=hyper, store_dir=tmp_path)
    pred, l_hat = speculate(load_run_checkpoints(tmp_path), 50, "linear", 10, task, hyper)
    assert l_hat == task.validation_loss(pred.theta_hat)
    assert pred.finite


def test_speculate_non_finite_prediction_scores_nan():
    task, hyper = smooth_bowl()
    theta = task.init_params(0)
    ck = make_checkpoint(50, theta, m=np.full_like(theta, np.inf), v=np.ones_like(theta))
    pred, l_hat = speculate([ck], 50, "momentum", 10, task, hyper)
    assert not pred.finite
    assert np.isnan(l_hat)


def test_predictions_track_true_continuation(tmp_path):
    # near convergence every predictor's forecast loss lands within 1e-6
    # of the loss the paused run would actually reach K steps later
    task = make_task("quad-bowl", noise=0.0)
    hyper = AdamHyper(lr=task.recommended_lr, weight_decay=0.0,
                      warmup_steps=20, total_steps=300)
    train_run(task, 42, total_steps=300, delta=50, hyper=hyper, store_dir=tmp_path)
    window = load_run_checkpoints(tmp_path)[2:5]
    assert [c.step for c in window] == [150, 200, 250]
    continued = train_run(task, 42, total_steps=255, delta=50, hyper=hyper)
    l_true = task.validation_loss(continued.theta_final)

    for predictor in ("linear", "quadratic", "quadratic_exact"):
        _, l_hat = speculate(window, 50, predictor, 5, task, hyper)
        assert abs(l_hat - l_true) <= 1e-6
    _, l_hat = speculate(window, 50, "momentum", 5, task, hyper)
    assert abs(l_hat - l_true) <= 5e-6


def _two_step_window(task):
    theta = task.target.copy()
    theta[0] += 1.0
    return [make_checkpoint(50, theta), make_checkpoint(100, theta)]


def test_leap_or_continue_gates_chaotic_and_unknown():
    task, hyper = smooth_bowl()
    settings = SpeculationSettings(predictor="linear", k=10)
    for regime in (RegimeLabel.CHAOTIC, RegimeLabel.UNKNOWN):
        w = _two_step_window(task)
        event, pred = leap_or_continue(w, 50, task, hyper, settings, regime=regime,
                                       sigma=0.0, epsilon=0.05)
        assert event is None and pred is None


def test_leap_or_continue_gating_can_be_disabled():
    task, hyper = smooth_bowl()
    w = _two_step_window(task)
    settings = SpeculationSettings(predictor="linear", k=10, regime_gating=False)
    event, pred = leap_or_continue(w, 50, task, hyper, settings,
                                   regime=RegimeLabel.CHAOTIC, sigma=0.0, epsilon=0.05)
    assert event is not None
    assert event.regime_at_leap is RegimeLabel.CHAOTIC


def test_leap_or_continue_requires_history():
    task, hyper = smooth_bowl()
    w = [make_checkpoint(50, task.init_params(0))]
    settings = SpeculationSettings(predictor="quadratic", k=10)
    event, pred = leap_or_continue(w, 50, task, hyper, settings,
                                   regime=RegimeLabel.STABLE, sigma=None, epsilon=0.05)
    assert event is None and pred is None


def test_leap_or_continue_accepts_stationary_prediction():
    task, hyper = smooth_bowl()
    w = _two_step_window(task)
    settings = SpeculationSettings(predictor="linear", k=10, criterion="strict")
    event, pred = leap_or_continue(w, 50, task, hyper, settings,
                                   regime=RegimeLabel.STABLE, sigma=None, epsilon=0.05)
    # identical history extrapolates to itself: l_hat ~ 0.05 < l_t = 1.0
    assert event is not None
    assert event.applied
    assert event.decision.sigma_l is None  # single loss: no sigma yet
    assert event.criterion_used == "strict"
    assert np.array_equal(pred.theta_hat, w[-1].theta)


@pytest.mark.parametrize("apply", [True, False])
@pytest.mark.parametrize("criterion", ["strict", "proximity"])  # accepts, rejects
def test_a_live_attempt_is_a_depth_one_cascade_walk(criterion, apply):
    task, hyper = smooth_bowl()
    w = _two_step_window(task)
    settings = SpeculationSettings(predictor="linear", k=10, criterion=criterion, apply=apply)
    event, pred = leap_or_continue(w, 50, task, hyper, settings,
                                   regime=RegimeLabel.TRANSITION, sigma=0.1, epsilon=0.05)
    walked = run_cascade(w[-1], pred, 1, criterion, task,
                         l_hat=task.validation_loss(pred.theta_hat), sigma_l=0.1,
                         epsilon=0.05, regime=RegimeLabel.TRANSITION)
    # l_hat ~ 0.05 against l_t = 1.0: strict accepts, proximity at 5% rejects
    accepted = criterion == "strict"
    assert event.decision.verdict(criterion) is accepted
    assert event.applied is (accepted and apply)
    assert event.regime_at_leap is RegimeLabel.TRANSITION
    assert walked == [replace(event, applied=False)]


def test_train_run_validates_arguments():
    task, hyper = smooth_bowl()
    with pytest.raises(ValueError):
        train_run(task, 0, total_steps=100, delta=50, hyper=hyper, ff_policy="rewind")
    with pytest.raises(ValueError):
        train_run(task, 0, total_steps=0, delta=50, hyper=hyper)
    with pytest.raises(ValueError):
        train_run(task, 0, total_steps=100, delta=0, hyper=hyper)
    with pytest.raises(ValueError):
        train_run(task, 0, total_steps=100, delta=50, hyper=hyper,
                  momentum_variant="turbo", speculation=SpeculationSettings())


class PoisonedBowl(QuadBowl):
    def validation_loss(self, theta):
        return float("nan")


class ExplodingBowl(QuadBowl):
    """Its gradient turns NaN on the seventh training step."""

    calls = 0

    def loss_and_grad(self, theta, batch, out=None):
        self.calls += 1
        tg = super().loss_and_grad(theta, batch, out=out)
        return replace(tg, grad=np.full_like(tg.grad, np.nan)) if self.calls == 7 else tg


def test_train_run_reports_divergence():
    hyper = AdamHyper(lr=0.05, warmup_steps=20, total_steps=100)
    with pytest.raises(RunDivergedError,
                       match=r"^non-finite validation loss at step 50 \(seed 0\)$"):
        train_run(PoisonedBowl(noise=0.0), 0, total_steps=100, delta=50, hyper=hyper)
    # a non-finite gradient inside a training step names that step
    with pytest.raises(RunDivergedError,
                       match=r"^non-finite gradient; training halted at step 7 \(seed 0\)$"):
        train_run(ExplodingBowl(noise=0.0), 0, total_steps=100, delta=50, hyper=hyper)


def test_plain_run_shape(tmp_path):
    task, hyper = smooth_bowl()
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, store_dir=tmp_path)
    ckpts = load_run_checkpoints(tmp_path)
    assert [c.step for c in ckpts] == res.steps == list(range(50, 501, 50))
    assert res.loss_log == [c.val_loss for c in ckpts]
    assert res.similarities[0] is None
    assert all(isinstance(s, float) for s in res.similarities[1:])
    labels = res.labels
    assert len(labels) == len(ckpts)
    assert labels[0] is RegimeLabel.UNKNOWN
    assert all(lab is RegimeLabel.STABLE for lab in labels[1:])
    assert res.adam_final.step == 500
    assert res.skipped_steps == 0
    assert res.events == []


def test_unlabeled_run_gates_all_speculation():
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="linear", k=30, criterion="proximity")
    plain = train_run(task, 42, total_steps=500, delta=50, hyper=hyper)
    gated = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                      epsilon=0.9, speculation=spec)
    # every checkpoint is `unknown` without thresholds, so nothing speculates
    assert gated.events == []
    assert gated.skipped_steps == 0
    assert gated.theta_final.tobytes() == plain.theta_final.tobytes()


def test_verify_only_mode_never_alters_the_run():
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="linear", k=30, criterion="proximity",
                               apply=False)
    plain = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                      thresholds=PERMISSIVE)
    forced = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                       thresholds=PERMISSIVE, epsilon=0.9, speculation=spec)
    assert forced.theta_final.tobytes() == plain.theta_final.tobytes()
    assert forced.adam_final.m.tobytes() == plain.adam_final.m.tobytes()
    assert forced.adam_final.v.tobytes() == plain.adam_final.v.tobytes()
    assert forced.loss_log == plain.loss_log
    assert forced.skipped_steps == 0
    assert not any(e.applied for e in forced.events)
    # at least one event would have leapt, so rejection really was forced
    assert any(e.decision.verdict("proximity") is True for e in forced.events)


def test_accepted_leaps_bookkeeping(tmp_path):
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="linear", k=30, criterion="proximity")
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, epsilon=0.9, speculation=spec, store_dir=tmp_path)
    assert [c.step for c in load_run_checkpoints(tmp_path)] == list(range(50, 501, 50))
    assert [(e.step_from, e.applied) for e in res.events] == [
        (100, False), (150, False), (200, True), (300, True), (400, True),
    ]
    assert res.skipped_steps == sum(e.k for e in res.events if e.applied) == 90
    assert res.adam_final.step == 500
    for e in res.events:
        assert e.stage == 1
        assert e.regime_at_leap is not RegimeLabel.CHAOTIC
        if e.applied:
            assert e.decision.verdict("proximity") is True
    # no speculation once fewer than K steps remain
    assert all(e.step_from + e.k <= 500 for e in res.events)


def test_checkpoints_stay_frozen_copies_while_training_continues(tmp_path, monkeypatch, cpus):
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="linear", k=30, criterion="proximity")
    # the checkpoints the run holds in memory, as it hands them to the store:
    # on one CPU no producer finishes them, so the run hands them to a Handover
    cpus(1)
    held = []
    save = engine.Handover.save
    monkeypatch.setattr(engine.Handover, "save",
                        lambda self, ckpt: (held.append(ckpt), save(self, ckpt)))
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, epsilon=0.9, speculation=spec,
                    store_dir=tmp_path)
    assert [c.step for c in held] == [c.step for c in load_run_checkpoints(tmp_path)]
    assert any(e.applied for e in res.events)  # a leap landed in the buffer too
    for ckpt in held:
        saved = load_checkpoint(tmp_path / f"ckpt_{ckpt.step}.lpv")
        for name in ("theta", "m", "v"):
            arr = getattr(ckpt, name)
            assert not arr.flags.writeable
            assert arr.tobytes() == getattr(saved, name).tobytes(), (ckpt.step, name)
    assert not np.shares_memory(held[-1].theta, res.theta_final)
    assert not np.shares_memory(held[-1].m, res.adam_final.m)


def test_leap_realigns_to_the_checkpoint_grid(tmp_path):
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="linear", k=75, criterion="proximity")
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, epsilon=0.9, speculation=spec, store_dir=tmp_path)
    # leaps from 200 and 350 land mid-interval; 250 and 400 are skipped over
    assert [c.step for c in load_run_checkpoints(tmp_path)] == res.steps == [
        50, 100, 150, 200, 300, 350, 450, 500]
    assert [(e.step_from, e.applied) for e in res.events] == [
        (100, False), (150, False), (200, True), (350, True),
    ]
    assert res.skipped_steps == 150
    assert res.adam_final.step == 500


def test_the_window_restarts_after_a_leap(monkeypatch):
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="linear", k=30, criterion="proximity")
    windows = {}  # by checkpoint: the rule sees each one's window, once more in an attempt
    rule = engine.attempts
    monkeypatch.setattr(engine, "attempts", lambda settings, window, *args: (
        windows.update({window[-1].step: [c.step for c in window]}),
        rule(settings, window, *args))[1])
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, epsilon=0.9, speculation=spec)
    assert [e.step_from for e in res.events if e.applied] == [200, 300, 400]
    # trimmed to the newest WINDOW_CAPACITY; after a leap the history holds
    # nothing from before it and grows again from the next trained checkpoint
    assert list(windows.values()) == [[50], [50, 100], [50, 100, 150], [100, 150, 200],
                                      [250], [250, 300], [350], [350, 400], [450], [450, 500]]
    assert max(map(len, windows.values())) == WINDOW_CAPACITY


def test_a_run_holds_only_its_window_in_memory(tmp_path):
    task = make_task("mlp-reg")
    hyper = AdamHyper(lr=task.recommended_lr, warmup_steps=20, total_steps=2000)
    peaks = {}
    for steps in (400, 2000):
        tracemalloc.start()
        try:
            train_run(task, 42, total_steps=steps, delta=50, hyper=hyper,
                      store_dir=tmp_path / str(steps))
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # five times the checkpoints, and less than one more checkpoint's bytes
    checkpoint_bytes = 3 * 8 * task.param_dim
    assert peaks[2000] <= peaks[400] + checkpoint_bytes, (peaks, checkpoint_bytes)


def test_events_and_checkpoints_are_streamed_to_disk(tmp_path):
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="linear", k=30, criterion="proximity")
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, epsilon=0.9, speculation=spec,
                    store_dir=tmp_path)
    for step, val_loss in zip(res.steps, res.loss_log, strict=True):
        stored = load_checkpoint(tmp_path / f"ckpt_{step}.lpv")
        assert stored.step == step
        assert stored.val_loss == val_loss
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert len(lines) == len(res.events)
    first = json.loads(lines[0])
    assert first["step_from"] == 100
    assert first["predictor"] == "linear"
    assert first["decision"]["l_t"] == res.events[0].decision.l_t


def test_leap_event_json_is_serializable():
    task, hyper = smooth_bowl()
    w = _two_step_window(task)
    event, _ = leap_or_continue(w, 50, task, hyper,
                                SpeculationSettings(predictor="linear", k=10),
                                regime=RegimeLabel.STABLE, sigma=0.0, epsilon=0.05)
    blob = json.dumps(asdict(event))
    back = json.loads(blob)
    assert back["regime_at_leap"] == "stable"
    assert back["stage"] == 1
    assert set(back["decision"]) == {
        "strict", "adaptive", "proximity", "l_hat", "l_t",
        "sigma_l", "epsilon", "reason",
    }


@pytest.fixture(scope="module")
def stable_window(tmp_path_factory):
    task, hyper = smooth_bowl()
    store = tmp_path_factory.mktemp("stable")
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, store_dir=store)
    window = load_run_checkpoints(store)[-3:]
    assert all(label is RegimeLabel.STABLE for label in res.labels[-3:])
    return task, hyper, window


def scored_cascade(window, depth, k, predictor, criterion, task, hyper, *, sigma_l):
    """run_cascade at delta 50 from speculate()'s stage-1 prediction and loss."""
    pred, l_hat = speculate(window, 50, predictor, k, task, hyper)
    return run_cascade(window[-1], pred, depth, criterion, task,
                       l_hat=l_hat, sigma_l=sigma_l, epsilon=0.05, regime=RegimeLabel.STABLE)


def test_cascade_refuses_depth_zero(stable_window):
    task, hyper, window = stable_window
    pred, l_hat = speculate(window, 50, "linear", 25, task, hyper)
    with pytest.raises(ValueError, match="cascade depth must be >= 1"):
        run_cascade(window[-1], pred, 0, "strict", task, l_hat=l_hat, sigma_l=None,
                    epsilon=0.05, regime=RegimeLabel.STABLE)


def test_cascade_stage_accounting(stable_window):
    task, hyper, window = stable_window
    depth, k = 3, 25
    events = scored_cascade(window, depth, k, "linear", "strict", task, hyper, sigma_l=None)
    assert 1 <= len(events) <= depth
    start = window[-1].step
    for i, ev in enumerate(events):
        assert ev.stage == i + 1
        assert ev.step_from == start + i * k
        assert ev.k == k
        assert not ev.applied
        assert ev.regime_at_leap is RegimeLabel.STABLE
    accepted = accepted_depth(events, "strict")
    if accepted < depth:
        assert len(events) == accepted + 1  # the rejection is kept as evidence
    else:
        assert len(events) == depth


def test_cascade_chains_losses_stage_to_stage(stable_window):
    task, hyper, window = stable_window
    events = scored_cascade(window, 3, 25, "linear", "strict", task, hyper,
                            sigma_l=None)
    pred, l_hat = speculate(window, 50, "linear", 25, task, hyper)
    assert events[0].decision.l_hat == l_hat
    assert events[0].decision.l_t == window[-1].val_loss
    assert events[0].displacement_norm == pred.displacement_norm
    for prev, curr in zip(events, events[1:]):
        assert curr.decision.l_t == prev.decision.l_hat


def test_cascade_depth_one_matches_single_speculation(stable_window):
    task, hyper, window = stable_window
    events = scored_cascade(window, 1, 25, "quadratic", "strict", task, hyper,
                            sigma_l=None)
    _, l_hat = speculate(window, 50, "quadratic", 25, task, hyper)
    expected = decide(l_hat, window[-1].val_loss, None, 0.05)
    assert len(events) == 1
    assert events[0].decision == expected


def test_cascade_strict_depth_never_exceeds_adaptive(stable_window):
    task, hyper, window = stable_window
    for predictor in ("momentum", "linear", "quadratic"):
        depths = {}
        for criterion in ("strict", "adaptive"):
            events = scored_cascade(window, 4, 25, predictor, criterion,
                                    task, hyper, sigma_l=window[-1].val_loss)
            depths[criterion] = accepted_depth(events, criterion)
        assert depths["strict"] <= depths["adaptive"]


def test_cascade_later_stages_keep_the_predictor_label(stable_window):
    task, hyper, window = stable_window
    events = scored_cascade(window, 4, 25, "quadratic", "adaptive", task, hyper,
                            sigma_l=10.0)
    assert len(events) >= 2  # a generous sigma accepts at least stage 1
    assert all(ev.predictor == "quadratic" for ev in events)


def test_accepted_depth_counts_leading_acceptances(stable_window):
    task, hyper, window = stable_window
    events = scored_cascade(window, 4, 25, "momentum", "adaptive", task, hyper,
                            sigma_l=1e9)
    assert accepted_depth(events, "adaptive") == len(events) == 4
    assert accepted_depth([], "strict") == 0


def test_momentum_variant_resolves_the_live_formula(tmp_path):
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="momentum", k=30, criterion="proximity", apply=False)
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, epsilon=0.9, momentum_variant="descent",
                    speculation=spec, store_dir=tmp_path)
    assert res.events
    # the event names the formula that ran, on disk too
    assert {e.predictor for e in res.events} == {"momentum_descent"}
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert {json.loads(line)["predictor"] for line in lines} == {"momentum_descent"}
    first = next(c for c in load_run_checkpoints(tmp_path) if c.step == res.events[0].step_from)
    expected = predict("momentum_descent", [first.theta], 50, 30, first.m, first.v, first.step,
                       hyper)
    assert res.events[0].displacement_norm == expected.displacement_norm


@pytest.fixture(scope="module")
def curved_window(tmp_path_factory):
    task = make_task("mlp-reg")
    # a schedule past the run keeps the lr, and so momentum_descent's step, nonzero
    hyper = AdamHyper(lr=task.recommended_lr, warmup_steps=20, total_steps=2000)
    store = tmp_path_factory.mktemp("curved")
    train_run(task, 42, total_steps=300, delta=50, hyper=hyper, store_dir=store)
    window = load_run_checkpoints(store)[-3:]
    # curved: quadratic's prediction is not linear's
    linear, _ = speculate(window, 50, "linear", 25, task, hyper)
    quadratic, _ = speculate(window, 50, "quadratic", 25, task, hyper)
    assert np.linalg.norm(quadratic.theta_hat - linear.theta_hat) > 0.01 * linear.displacement_norm
    return task, hyper, window


def chain_rule_losses(window, delta, formula, k, depth, task, hyper):
    """Stage losses of a cascade that re-runs the formula at every stage.

    Stage 1 predicts from the window; each later stage runs the formula on
    the chain [theta_t, stage 1, ...] at spacing K with the start
    checkpoint's moments, in the linear form while the chain is shorter than
    the formula's history.
    """
    start = window[-1]
    chain = [start.theta]
    for stage in range(1, depth + 1):
        if stage == 1:
            pred = predict(formula, [c.theta for c in window], delta, k,
                           start.m, start.v, start.step, hyper)
        else:
            name = formula if len(chain) >= FORMULAS[formula].history else LINEAR
            pred = predict(name, chain, k, k, start.m, start.v, start.step, hyper)
        chain.append(pred.theta_hat)
    return [task.validation_loss(theta) for theta in chain[1:]]


@pytest.mark.parametrize("formula", sorted(FORMULAS))
def test_cascade_stages_continue_along_the_first_leap(curved_window, formula, monkeypatch):
    task, hyper, window = curved_window
    depth, k = 4, 25
    first, l_first = speculate(window, 50, formula, k, task, hyper)
    # stage 1 takes the loss it is given and scores nothing itself
    given = l_first * (1.0 + 2.0 ** -40)
    scored = []
    validation_loss = task.validation_loss
    monkeypatch.setattr(task, "validation_loss",
                        lambda theta: scored.append(theta) or validation_loss(theta))
    events = run_cascade(window[-1], first, depth, "adaptive", task,
                         l_hat=given, sigma_l=1e9, epsilon=0.05, regime=RegimeLabel.STABLE)
    assert len(events) == depth
    assert len(scored) == depth - 1
    assert events[0].decision.l_hat == given
    assert events[0].decision.l_t == window[-1].val_loss
    leap = first.theta_hat - window[-1].theta
    theta = first.theta_hat
    for prev, event in zip(events, events[1:]):
        theta = theta + leap
        assert event.decision.l_hat == validation_loss(theta)
        assert event.decision.l_t == prev.decision.l_hat
    reference = chain_rule_losses(window, 50, formula, k, depth, task, hyper)
    assert [e.decision.l_hat for e in events[1:]] == pytest.approx(reference[1:], rel=1e-12, abs=0)
    assert [e.displacement_norm for e in events] == [first.displacement_norm] * depth


# ------------------------------------------------------ batches drawn ahead

@pytest.fixture
def producers(monkeypatch):
    """The batch producers train_run starts, each with the count of blocks it handed over."""
    made = []

    class Counted(workers.BlockProducer):
        def __init__(self, *args):
            super().__init__(*args)
            self.served = 0
            made.append(self)

        def take(self, seed, first):
            block = super().take(seed, first)
            self.served += block is not None
            return block

    monkeypatch.setattr(workers, "BlockProducer", Counted)
    return made


@pytest.fixture
def two_cpus():
    if engine.usable_cpus() < 2:
        pytest.skip("a batch producer needs a second CPU")


# with every checkpoint stable, these criteria make runs of each task leap
# K = 100 steps, past more blocks than the ring holds
FAR_LEAP_CRITERIA = {"quad-bowl": "adaptive", "mlp-reg": "proximity", "char-seq": "proximity"}
RUN_STEPS = 1000


def far_leaps(name: str) -> SpeculationSettings:
    return SpeculationSettings(predictor="linear", k=100, criterion=FAR_LEAP_CRITERIA[name])


# a quadratic predictor waits for three checkpoints after the run's start and
# after each leap, and the adaptive criterion reads the recent loss std
WAITING_ADAPTIVE = SpeculationSettings(predictor="quadratic", k=100, criterion="adaptive")


def stored_run(task, store_dir, speculation=None, steps=RUN_STEPS, delta=20):
    result = train_run(task, 42, total_steps=steps, delta=delta,
                       hyper=AdamHyper(lr=task.recommended_lr, total_steps=steps),
                       thresholds=PERMISSIVE, epsilon=0.9, speculation=speculation,
                       store_dir=store_dir)
    return pickle.dumps(result), stored_files(store_dir)


def stored_files(store_dir):
    """The run dir's files by name, with None for a directory."""
    return {path.name: path.read_bytes() if path.is_file() else None
            for path in sorted(store_dir.iterdir())}


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_producer_leaves_every_output_unchanged(name, live, tmp_path, cpus, producers,
                                                  two_cpus, monkeypatch):
    speculation = far_leaps(name) if live else None
    cpus(1)
    inline = stored_run(make_task(name), tmp_path / "inline", speculation)
    assert producers == []
    cpus(2)

    def refuse(data, step, store_dir, task):
        raise AssertionError(f"the run finished checkpoint {step} itself")

    monkeypatch.setattr(engine, "finish_checkpoint", refuse)  # the producer finishes every one
    assert stored_run(make_task(name), tmp_path / "ahead", speculation) == inline
    (producer,) = producers
    assert producer.served > 0
    if live:
        assert pickle.loads(inline[0]).skipped_steps >= 100 > workers.RING_SLOTS * BATCH_BLOCK


def test_a_killed_producer_leaves_the_run_unchanged(tmp_path, cpus, producers, two_cpus):
    cpus(1)
    inline = stored_run(make_task("char-seq"), tmp_path / "inline", far_leaps("char-seq"))
    cpus(2)
    task = make_task("char-seq")
    batch = task.batch

    def kill_the_producer_at_step_100(seed, step):
        if step == 0:  # the run draws a block itself where the producer has not drawn it yet
            time.sleep(0.05)
        if step >= 100 and not killed:
            (child,) = multiprocessing.active_children()
            os.kill(child.pid, signal.SIGKILL)
            killed.append(step)
        return batch(seed, step)

    killed = []
    task.batch = kill_the_producer_at_step_100
    assert stored_run(task, tmp_path / "killed", far_leaps("char-seq")) == inline
    # it may have handed over a block or two it drew before it was killed
    assert 0 < producers[0].served <= killed[0] // BATCH_BLOCK + workers.RING_SLOTS


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_producer_killed_after_the_first_hand_off_leaves_every_checkpoint(
        name, live, tmp_path, cpus, producers, two_cpus, monkeypatch):
    speculation = far_leaps(name) if live else None
    cpus(1)
    inline = stored_run(make_task(name), tmp_path / "inline", speculation)
    cpus(2)
    hand_off, handed, written_here = workers.BlockProducer.save, [], []

    def hand_off_then_kill(producer, ckpt):
        hand_off(producer, ckpt)
        if not handed:
            (child,) = multiprocessing.active_children()
            os.kill(child.pid, signal.SIGKILL)
            child.join()
        handed.append(ckpt.step)

    monkeypatch.setattr(workers.BlockProducer, "save", hand_off_then_kill)
    monkeypatch.setattr(engine, "finish_checkpoint", lambda data, step, *args: (
        written_here.append(step), finish_checkpoint(data, step, *args))[1])
    assert stored_run(make_task(name), tmp_path / "killed", speculation) == inline
    steps = pickle.loads(inline[0]).steps
    assert handed == steps
    # the first checkpoint the producer may have written before it was killed
    assert written_here in (steps, steps[1:])


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_checkpoint_that_cannot_be_written_fails_the_run_alike_with_a_producer(
        name, live, tmp_path, cpus, producers, two_cpus):
    speculation = far_leaps(name) if live else None
    errors, files = [], []
    for n in (1, 2):
        cpus(n)
        store_dir = tmp_path / f"cpus-{n}"
        (store_dir / "ckpt_40.lpv").mkdir(parents=True)  # the second checkpoint's path
        with pytest.raises(OSError) as caught:
            stored_run(make_task(name), store_dir, speculation)
        errors.append((type(caught.value), str(caught.value).replace(str(store_dir), "")))
        files.append(stored_files(store_dir))
    assert len(producers) == 1
    assert errors[0] == errors[1]
    assert "/ckpt_40.lpv'" in errors[0][1]
    # the run stops at that checkpoint: no event from it or past it is logged
    assert files[0] == files[1]


def test_a_producer_that_cannot_be_pinned_leaves_the_run_unchanged(tmp_path, cpus, producers,
                                                                   monkeypatch):
    cpus(1)
    inline = stored_run(make_task("mlp-reg"), tmp_path / "inline")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4094, 4095})  # no such CPUs
    assert stored_run(make_task("mlp-reg"), tmp_path / "unpinned") == inline
    assert producers[0].served == 0


def test_a_run_that_stops_early_leaves_no_producer(cpus, producers, two_cpus):
    cpus(2)
    task = make_task("quad-bowl")
    with pytest.raises(RunDivergedError, match="at step"):
        train_run(task, 0, total_steps=400, delta=50, hyper=AdamHyper(lr=1e6))
    batch = task.batch

    def interrupt_at_step_50(seed, step):
        if step == 50:
            raise KeyboardInterrupt
        return batch(seed, step)

    task.batch = interrupt_at_step_50
    with pytest.raises(KeyboardInterrupt):
        train_run(task, 0, total_steps=400, delta=50, hyper=AdamHyper(lr=0.05))
    assert len(producers) == 2
    assert multiprocessing.active_children() == []
    assert task.producer is None


def test_short_runs_and_seed_workers_start_no_producer(cpus, producers, monkeypatch):
    cpus(2)
    task, hyper = smooth_bowl()
    train_run(task, 0, total_steps=2 * BATCH_BLOCK, delta=8, hyper=hyper)
    monkeypatch.setattr(workers, "in_worker", lambda: True)
    train_run(task, 0, total_steps=400, delta=50, hyper=hyper)
    assert producers == []


# ---------------------------------------- checkpoints measured behind the run

@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_held_out_loss_and_a_fingerprint_are_pure(name):
    task = make_task(name)
    a, b = task.init_params(0), task.init_params(1)
    alone = task.validation_loss(a), task.fingerprint(a).tobytes()
    task.validation_loss(b)
    task.fingerprint(b)
    # the same whatever was measured before, and on a task that measured nothing:
    # the producer takes a checkpoint's loss alike, and the run its fingerprint
    assert (task.validation_loss(a), task.fingerprint(a).tobytes()) == alone
    fresh = make_task(name)
    assert (fresh.validation_loss(a), fresh.fingerprint(a).tobytes()) == alone


@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_nan_loss_is_the_one_sign_that_a_checkpoint_is_measured(name, tmp_path):
    task = make_task(name)
    theta = task.init_params(3)
    loss = task.validation_loss(theta)
    validation_loss, taken = task.validation_loss, []
    task.validation_loss = lambda theta: (taken.append(theta), validation_loss(theta))[1]
    size = trajectory.checkpoint_bytes(task.param_dim)
    for val_loss in (0.5, math.nan):  # as a live run and a plain run hand it over
        ckpt = make_checkpoint(20, theta, val_loss=val_loss, seed=3)
        data = bytearray(size)
        trajectory.encode_checkpoint(ckpt, data)
        handed = bytes(data)
        store_dir = tmp_path / repr(val_loss)
        store_dir.mkdir()
        measured = finish_checkpoint(data, 20, store_dir, task)
        handover = engine.Handover(bytearray(size), None, task)
        handover.save(ckpt)
        settled = handover.settle()
        if math.isfinite(val_loss):
            assert measured is None and settled is None
            assert bytes(data) == handed
            assert taken == []
        else:
            assert measured == settled == loss
            trajectory.encode_checkpoint(replace(ckpt, val_loss=loss), handed := bytearray(size))
            assert data == handed  # the loss is packed in
            assert len(taken) == 2
        assert (store_dir / "ckpt_20.lpv").read_bytes() == data


@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_producer_measures_only_a_checkpoint_handed_over_with_a_nan_loss(name, tmp_path,
                                                                          two_cpus):
    task = make_task(name)
    theta = task.init_params(3)
    loss = task.validation_loss(theta)
    producer = workers.BlockProducer(task, 3, 4 * BATCH_BLOCK, tmp_path)
    try:
        producer.save(make_checkpoint(20, theta, val_loss=0.5, seed=3))
        assert producer.settle() is None
        producer.save(make_checkpoint(40, theta, val_loss=math.nan, seed=3))
        val_loss = producer.settle()
    finally:
        producer.close()
    assert val_loss == loss
    assert load_checkpoint(tmp_path / "ckpt_20.lpv").val_loss == 0.5
    assert load_checkpoint(tmp_path / "ckpt_40.lpv").val_loss == loss


@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_run_without_a_store_dir_is_measured_alike_behind_it(name, cpus, producers,
                                                              two_cpus):
    """A calibration run: plain, and storing nothing."""
    results, taken, fingerprinted = [], [], []
    for n in (1, 2):
        cpus(n)
        task = make_task(name)
        taken.append(count_the_held_out_losses_taken_here(task))
        fingerprinted.append(count_the_fingerprints_taken_here(task))
        result = train_run(task, 42, total_steps=RUN_STEPS, delta=20, thresholds=PERMISSIVE,
                           hyper=AdamHyper(lr=task.recommended_lr, total_steps=RUN_STEPS))
        results.append((result.steps, result.loss_log, result.similarities, result.labels))
    assert len(producers) == 1
    # the run measured each checkpoint itself on one CPU, and the producer on two;
    # the run fingerprinted every one itself on both
    assert (len(taken[0]), len(taken[1])) == (len(results[0][0]), 0)
    assert len(fingerprinted[0]) == len(fingerprinted[1]) == len(results[0][0])
    assert results[0] == results[1]


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
def test_a_producer_that_dies_after_finishing_a_checkpoint_leaves_every_output_unchanged(
        live, tmp_path, cpus, producers, two_cpus, monkeypatch):
    speculation = far_leaps("mlp-reg") if live else None
    cpus(1)
    inline = stored_run(make_task("mlp-reg"), tmp_path / "inline", speculation)
    cpus(2)
    finish = workers.finish_checkpoint

    def finish_then_die(*args):
        finish(*args)
        os._exit(1)  # before it replies, so the run finishes the checkpoint again

    monkeypatch.setattr(workers, "finish_checkpoint", finish_then_die)
    assert stored_run(make_task("mlp-reg"), tmp_path / "died", speculation) == inline
    assert len(producers) == 1


@pytest.mark.parametrize("how", ["one-cpu", "two-cpus", "killed"])
@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
def test_every_checkpoint_handed_over_is_encoded_once(live, how, tmp_path, cpus, producers,
                                                      monkeypatch):
    if how != "one-cpu" and engine.usable_cpus() < 2:
        pytest.skip("a batch producer needs a second CPU")
    speculation = far_leaps("char-seq") if live else None
    encode, encoded = trajectory.encode_checkpoint, []

    def counted(ckpt, out):
        encoded.append(ckpt.step)
        encode(ckpt, out)

    for module in (engine, workers, trajectory):  # wherever it is looked up
        if hasattr(module, "encode_checkpoint"):
            monkeypatch.setattr(module, "encode_checkpoint", counted)
    if how == "killed":
        hand_off = workers.BlockProducer.save

        def hand_off_then_kill(producer, ckpt):
            hand_off(producer, ckpt)
            if len(encoded) == 1:
                (child,) = multiprocessing.active_children()
                os.kill(child.pid, signal.SIGKILL)
                child.join()

        monkeypatch.setattr(workers.BlockProducer, "save", hand_off_then_kill)
    cpus(1 if how == "one-cpu" else 2)
    result = pickle.loads(stored_run(make_task("char-seq"), tmp_path, speculation)[0])
    assert len(producers) == (0 if how == "one-cpu" else 1)
    assert encoded == result.steps


def delay_the_producer_s_measuring(monkeypatch, seconds):
    """Make the producer wait `seconds` before it takes each held-out loss; the
    run, where it takes one itself, does not."""
    run = os.getpid()

    def delayed(validation_loss):
        def slow(self, theta):
            if os.getpid() != run:
                time.sleep(seconds)
            return validation_loss(self, theta)
        return slow

    for cls in (QuadBowl, TanhNetwork):  # where the tasks' validation_loss is defined
        monkeypatch.setattr(cls, "validation_loss", delayed(cls.validation_loss))


def count_the_steps_trained(task):
    """The list to which each training step of the task appends its step."""
    batch, trained = task.batch, []
    task.batch = lambda seed, step: (trained.append(step), batch(seed, step))[1]
    return trained


def count_the_held_out_losses_taken_here(task):
    """The list to which each validation_loss call in this process appends 1."""
    here, validation_loss, taken = os.getpid(), task.validation_loss, []
    task.validation_loss = lambda theta: (
        taken.append(1) if os.getpid() == here else None, validation_loss(theta))[1]
    return taken


def count_the_fingerprints_taken_here(task):
    """The list to which each fingerprint call in this process appends 1."""
    here, fingerprint, taken = os.getpid(), task.fingerprint, []
    task.fingerprint = lambda theta: (
        taken.append(1) if os.getpid() == here else None, fingerprint(theta))[1]
    return taken


@pytest.mark.parametrize("kind", ["plain", "live", "adaptive"])
@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_checkpoint_settled_past_its_step_leaves_every_output_unchanged(
        name, kind, tmp_path, cpus, producers, two_cpus, monkeypatch):
    speculation = {"plain": None, "live": far_leaps(name), "adaptive": WAITING_ADAPTIVE}[kind]
    cpus(1)
    task = make_task(name)
    inline_trained = count_the_steps_trained(task)
    inline_taken = count_the_held_out_losses_taken_here(task)
    inline = stored_run(task, tmp_path / "inline", speculation)
    cpus(2)
    delay_the_producer_s_measuring(monkeypatch, 0.005)  # longer than delta steps take
    task = make_task(name)
    trained = count_the_steps_trained(task)
    taken = count_the_held_out_losses_taken_here(task)
    assert stored_run(task, tmp_path / "late", speculation) == inline
    assert len(producers) == 1
    # the run takes the held-out losses of an attempt itself, L_t and L_hat,
    # and trains no step it then throws away, so its work repeats exactly;
    # every other checkpoint is measured behind it
    result = pickle.loads(inline[0])
    assert trained == inline_trained
    assert len(inline_taken) == len(result.steps) + len(result.events)
    assert len(taken) == 2 * len(result.events)
    assert len(trained) == RUN_STEPS - result.skipped_steps
    assert (result.skipped_steps > 0) == (kind == "live")
    if kind == "adaptive":
        # each attempt's sigma reads the losses of the checkpoints before it,
        # at least two of which made no attempt, and so were measured late
        assert result.events and len(result.events) < len(result.steps) - 2
        assert all(event.decision.sigma_l is not None for event in result.events)


@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_live_run_takes_a_held_out_loss_itself_only_to_attempt(name, tmp_path, cpus,
                                                                  producers, two_cpus):
    cpus(2)
    task = make_task(name)
    taken = count_the_held_out_losses_taken_here(task)
    fingerprinted = count_the_fingerprints_taken_here(task)
    result = pickle.loads(stored_run(task, tmp_path, WAITING_ADAPTIVE)[0])
    assert len(producers) == 1
    # the quadratic's history wait and the last K steps leave checkpoints without an attempt
    assert 0 < len(result.events) < len(result.steps)
    assert result.steps[-1] + WAITING_ADAPTIVE.k > RUN_STEPS
    # L_t and L_hat of each attempt; the producer measures every other checkpoint,
    # and the run fingerprints every one itself
    assert len(taken) == 2 * len(result.events)
    assert len(fingerprinted) == len(result.steps)


def poison_the_gradient_at(task, poisoned):
    """Make the task's gradient at step `poisoned` non-finite."""
    trained = count_the_steps_trained(task)
    loss_and_grad = task.loss_and_grad

    def poisoned_gradient(theta, batch, out=None):
        tg = loss_and_grad(theta, batch, out=out)
        return replace(tg, grad=np.full_like(tg.grad, np.nan)) if trained[-1] == poisoned else tg

    task.loss_and_grad = poisoned_gradient


def poison_the_held_out_loss_of(task, poisoned):
    """Make the task's held-out loss of the parameters `poisoned` NaN."""
    validation_loss = task.validation_loss
    task.validation_loss = lambda theta: (
        math.nan if np.array_equal(theta, poisoned) else validation_loss(theta))


def diverged_runs(name, speculation, tmp_path, cpus, poison):
    """(message, files) of a stored run of task `name`, poisoned by
    poison(task), on one CPU and on two."""
    outcomes = []
    for n in (1, 2):
        cpus(n)
        task = make_task(name)
        poison(task)
        store_dir = tmp_path / f"cpus-{n}"
        with pytest.raises(RunDivergedError) as caught:
            stored_run(task, store_dir, speculation)
        outcomes.append((str(caught.value), stored_files(store_dir)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_non_finite_held_out_loss_stops_the_run_at_its_checkpoint(
        name, live, tmp_path, cpus, producers, two_cpus):
    speculation = far_leaps(name) if live else None
    cpus(1)
    clean = pickle.loads(stored_run(make_task(name), tmp_path / "clean", speculation)[0])
    step = clean.steps[3]
    poisoned = load_checkpoint(tmp_path / "clean" / f"ckpt_{step}.lpv").theta
    message, files = diverged_runs(name, speculation, tmp_path, cpus,
                                   lambda task: poison_the_held_out_loss_of(task, poisoned))
    assert len(producers) == 1
    assert message == f"non-finite validation loss at step {step} (seed 42)"
    assert f"ckpt_{step}.lpv" not in files
    assert f"ckpt_{clean.steps[2]}.lpv" in files


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_non_finite_gradient_past_a_diverged_checkpoint_names_the_checkpoint(
        name, live, tmp_path, cpus, producers, two_cpus, monkeypatch):
    speculation = far_leaps(name) if live else None
    cpus(1)
    clean = pickle.loads(stored_run(make_task(name), tmp_path / "clean", speculation)[0])
    step = clean.steps[3]
    poisoned = load_checkpoint(tmp_path / "clean" / f"ckpt_{step}.lpv").theta
    delay_the_producer_s_measuring(monkeypatch, 0.005)  # so that the run trains on meanwhile

    def poison(task):
        poison_the_held_out_loss_of(task, poisoned)
        poison_the_gradient_at(task, step)  # the step after the checkpoint

    message, files = diverged_runs(name, speculation, tmp_path, cpus, poison)
    assert len(producers) == 1
    assert message == f"non-finite validation loss at step {step} (seed 42)"
    assert f"ckpt_{step}.lpv" not in files


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_non_finite_gradient_with_a_checkpoint_pending_fails_the_run_alike(
        name, live, tmp_path, cpus, producers, two_cpus, monkeypatch):
    speculation = far_leaps(name) if live else None
    step = 21  # the step after the first checkpoint, from which no leap is made
    delay_the_producer_s_measuring(monkeypatch, 0.005)  # so that checkpoint 20 is pending then
    message, files = diverged_runs(name, speculation, tmp_path, cpus,
                                   lambda task: poison_the_gradient_at(task, step - 1))
    assert len(producers) == 1
    assert message == f"non-finite gradient; training halted at step {step} (seed 42)"
    assert "ckpt_20.lpv" in files


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
@pytest.mark.parametrize("name", ["quad-bowl", "char-seq"])
def test_non_finite_parameters_stop_the_run_at_their_checkpoint(
        name, live, tmp_path, cpus, producers, two_cpus, monkeypatch):
    speculation = far_leaps(name) if live else None
    cpus(1)
    clean = pickle.loads(stored_run(make_task(name), tmp_path / "clean", speculation)[0])
    step = clean.steps[3]
    update = engine.apply_update

    def overflow_at_the_checkpoint(state, theta, g, out=None):
        updated = update(state, theta, g, out=out)
        if state.step == step:
            out[0] = math.inf  # finite gradients, and yet the parameters overflow
        return updated

    monkeypatch.setattr(engine, "apply_update", overflow_at_the_checkpoint)
    message, files = diverged_runs(name, speculation, tmp_path, cpus, lambda task: None)
    assert len(producers) == 1
    assert message == f"non-finite parameters at step {step} (seed 42)"
    assert f"ckpt_{step}.lpv" not in files
    assert f"ckpt_{clean.steps[2]}.lpv" in files


@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_live_run_that_fails_leaves_its_checkpoints_and_neither_log(
        name, tmp_path, cpus, producers, two_cpus, monkeypatch):
    speculation = far_leaps(name)
    cpus(1)
    clean = stored_run(make_task(name), tmp_path / "clean", speculation)[1]
    attempt, attempted = engine.leap_or_continue, []

    def fail_on_the_third_attempt(window, *args, **kwargs):
        attempted.append(window[-1].step)
        if len(attempted) == 3:
            raise RuntimeError("the attempt failed")
        return attempt(window, *args, **kwargs)

    monkeypatch.setattr(engine, "leap_or_continue", fail_on_the_third_attempt)
    for n in (1, 2):
        cpus(n)
        attempted.clear()
        store_dir = tmp_path / f"cpus-{n}"
        with pytest.raises(RuntimeError, match="the attempt failed"):
            stored_run(make_task(name), store_dir, speculation)
        # every checkpoint up to the failed attempt's, which was handed over first
        assert stored_files(store_dir) == {
            name: data for name, data in clean.items()
            if name.startswith("ckpt_") and int(name[5:-4]) <= attempted[-1]}
    assert len(producers) == 1
    # an event was logged before the failure, and is not now
    assert json.loads(clean["events.jsonl"].splitlines()[0])["step_from"] < attempted[-1]


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_producer_killed_with_a_checkpoint_pending_leaves_every_output_unchanged(
        name, live, tmp_path, cpus, producers, two_cpus, monkeypatch):
    speculation = far_leaps(name) if live else None
    cpus(1)
    inline = stored_run(make_task(name), tmp_path / "inline", speculation)
    cpus(2)
    delay_the_producer_s_measuring(monkeypatch, 0.05)  # longer than the kill takes
    hand_off, handed = workers.BlockProducer.save, []

    def kill_after_the_third_hand_off(producer, ckpt):
        hand_off(producer, ckpt)
        handed.append(ckpt.step)
        if len(handed) == 3:
            assert producer.pending is ckpt
            (child,) = multiprocessing.active_children()
            os.kill(child.pid, signal.SIGKILL)
            child.join()

    monkeypatch.setattr(workers.BlockProducer, "save", kill_after_the_third_hand_off)
    assert stored_run(make_task(name), tmp_path / "killed", speculation) == inline
    assert handed == pickle.loads(inline[0]).steps


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_checkpoint_at_every_step_leaves_every_output_unchanged(
        name, live, tmp_path, cpus, producers, two_cpus):
    speculation = SpeculationSettings(predictor="linear", k=5,
                                      criterion=FAR_LEAP_CRITERIA[name]) if live else None
    steps = 100  # the default warm-up's length, and more than two batch blocks
    cpus(1)
    inline = stored_run(make_task(name), tmp_path / "inline", speculation, steps, delta=1)
    cpus(2)
    assert stored_run(make_task(name), tmp_path / "ahead", speculation, steps, delta=1) == inline
    assert len(producers) == 1
    assert (pickle.loads(inline[0]).skipped_steps > 0) == live
