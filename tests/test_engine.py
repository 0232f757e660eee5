from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from leapverify.engine import (
    FF_POLICIES,
    CascadeConfig,
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
    MOMENTUM_VARIANTS,
    InsufficientHistoryError,
    predict_momentum_descent,
)
from leapverify.regime import RegimeLabel, Thresholds
from leapverify.tasks import QuadBowl, make_task
from leapverify.trajectory import load_checkpoint
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


def test_cascade_config_validation():
    CascadeConfig(depth=1, k=1)
    with pytest.raises(ValueError):
        CascadeConfig(depth=0, k=25)
    with pytest.raises(ValueError):
        CascadeConfig(depth=4, k=0)


def test_speculate_validates_inputs():
    task, hyper = smooth_bowl()
    ck = make_checkpoint(50, task.init_params(0))
    with pytest.raises(ValueError):
        speculate([ck], 50, "oracle", 10, task, hyper)
    with pytest.raises(ValueError):
        speculate([ck], 50, "descent", 10, task, hyper)  # a variant, not a formula
    with pytest.raises(InsufficientHistoryError):
        speculate([ck], 50, "linear", 10, task, hyper)


def test_speculate_scores_prediction_on_held_out_set():
    task, hyper = smooth_bowl()
    res = train_run(task, 42, total_steps=150, delta=50, hyper=hyper)
    pred, l_hat = speculate(res.checkpoints, 50, "linear", 10, task, hyper)
    assert l_hat == task.validation_loss(pred.theta_hat)
    assert pred.finite


def test_speculate_non_finite_prediction_scores_nan():
    task, hyper = smooth_bowl()
    theta = task.init_params(0)
    ck = make_checkpoint(50, theta, m=np.full_like(theta, np.inf), v=np.ones_like(theta))
    pred, l_hat = speculate([ck], 50, "momentum", 10, task, hyper)
    assert not pred.finite
    assert np.isnan(l_hat)


def test_predictions_track_true_continuation():
    # near convergence every predictor's forecast loss lands within 1e-6
    # of the loss the paused run would actually reach K steps later
    task = make_task("quad-bowl", noise=0.0)
    hyper = AdamHyper(lr=task.recommended_lr, weight_decay=0.0,
                      warmup_steps=20, total_steps=300)
    paused = train_run(task, 42, total_steps=300, delta=50, hyper=hyper)
    window = paused.checkpoints[2:5]
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

    def loss_and_grad(self, theta, batch):
        self.calls += 1
        tg = super().loss_and_grad(theta, batch)
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


def test_plain_run_shape():
    task, hyper = smooth_bowl()
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE)
    assert [c.step for c in res.checkpoints] == list(range(50, 501, 50))
    assert res.loss_log == [c.val_loss for c in res.checkpoints]
    assert res.similarities[0] is None
    assert all(isinstance(s, float) for s in res.similarities[1:])
    labels = res.labels
    assert len(labels) == len(res.checkpoints)
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


def test_accepted_leaps_bookkeeping():
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="linear", k=30, criterion="proximity")
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, epsilon=0.9, speculation=spec)
    assert [c.step for c in res.checkpoints] == list(range(50, 501, 50))
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


def test_checkpoints_stay_frozen_copies_while_training_continues(tmp_path):
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="linear", k=30, criterion="proximity")
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, epsilon=0.9, speculation=spec,
                    store_dir=tmp_path)
    assert any(e.applied for e in res.events)  # a leap landed in the buffer too
    for ckpt in res.checkpoints:
        saved = load_checkpoint(tmp_path / f"ckpt_{ckpt.step}.lpv")
        for name in ("theta", "m", "v"):
            arr = getattr(ckpt, name)
            assert not arr.flags.writeable
            assert arr.tobytes() == getattr(saved, name).tobytes(), (ckpt.step, name)
    assert not np.shares_memory(res.checkpoints[-1].theta, res.theta_final)
    assert not np.shares_memory(res.checkpoints[-1].m, res.adam_final.m)


def test_leap_realigns_to_the_checkpoint_grid():
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="linear", k=75, criterion="proximity")
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, epsilon=0.9, speculation=spec)
    # leaps from 200 and 350 land mid-interval; 250 and 400 are skipped over
    assert [c.step for c in res.checkpoints] == [50, 100, 150, 200, 300, 350, 450, 500]
    assert [(e.step_from, e.applied) for e in res.events] == [
        (100, False), (150, False), (200, True), (350, True),
    ]
    assert res.skipped_steps == 150
    assert res.adam_final.step == 500


def test_events_and_checkpoints_are_streamed_to_disk(tmp_path):
    task, hyper = smooth_bowl()
    spec = SpeculationSettings(predictor="linear", k=30, criterion="proximity")
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE, epsilon=0.9, speculation=spec,
                    store_dir=tmp_path)
    for c in res.checkpoints:
        stored = load_checkpoint(tmp_path / f"ckpt_{c.step}.lpv")
        assert stored.step == c.step
        assert stored.val_loss == c.val_loss
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
    blob = json.dumps(event.to_json())
    back = json.loads(blob)
    assert back["regime_at_leap"] == "stable"
    assert back["stage"] == 1
    assert set(back["decision"]) == {
        "strict", "adaptive", "proximity", "l_hat", "l_t",
        "sigma_l", "epsilon", "reason",
    }


@pytest.fixture(scope="module")
def stable_window():
    task, hyper = smooth_bowl()
    res = train_run(task, 42, total_steps=500, delta=50, hyper=hyper,
                    thresholds=PERMISSIVE)
    window = res.checkpoints[-3:]
    assert all(label is RegimeLabel.STABLE for label in res.labels[-3:])
    return task, hyper, window


def test_cascade_requires_history_for_the_predictor(stable_window):
    task, hyper, window = stable_window
    with pytest.raises(InsufficientHistoryError):
        run_cascade(window[-1:], 50, CascadeConfig(2, 25), "linear", "strict",
                    task, hyper, sigma_l=None, epsilon=0.05)


def test_cascade_stage_accounting(stable_window):
    task, hyper, window = stable_window
    cfg = CascadeConfig(depth=3, k=25)
    events = run_cascade(window, 50, cfg, "linear", "strict", task, hyper,
                         sigma_l=None, epsilon=0.05)
    assert 1 <= len(events) <= cfg.depth
    start = window[-1].step
    for i, ev in enumerate(events):
        assert ev.stage == i + 1
        assert ev.step_from == start + i * cfg.k
        assert ev.k == cfg.k
        assert not ev.applied
        assert ev.regime_at_leap is RegimeLabel.STABLE
    depth = accepted_depth(events, "strict")
    if depth < cfg.depth:
        assert len(events) == depth + 1  # the rejection is kept as evidence
    else:
        assert len(events) == cfg.depth


def test_cascade_chains_losses_stage_to_stage(stable_window):
    task, hyper, window = stable_window
    events = run_cascade(window, 50, CascadeConfig(3, 25), "linear", "strict",
                         task, hyper, sigma_l=None, epsilon=0.05)
    pred, l_hat = speculate(window, 50, "linear", 25, task, hyper)
    assert events[0].decision.l_hat == l_hat
    assert events[0].decision.l_t == window[-1].val_loss
    assert events[0].displacement_norm == pred.displacement_norm
    for prev, curr in zip(events, events[1:]):
        assert curr.decision.l_t == prev.decision.l_hat


def test_cascade_depth_one_matches_single_speculation(stable_window):
    task, hyper, window = stable_window
    events = run_cascade(window, 50, CascadeConfig(1, 25), "quadratic", "strict",
                         task, hyper, sigma_l=None, epsilon=0.05)
    _, l_hat = speculate(window, 50, "quadratic", 25, task, hyper)
    expected = decide(l_hat, window[-1].val_loss, None, 0.05)
    assert len(events) == 1
    assert events[0].decision == expected


def test_cascade_strict_depth_never_exceeds_adaptive(stable_window):
    task, hyper, window = stable_window
    for predictor in ("momentum", "linear", "quadratic"):
        depths = {}
        for criterion in ("strict", "adaptive"):
            events = run_cascade(window, 50, CascadeConfig(4, 25), predictor,
                                 criterion, task, hyper,
                                 sigma_l=window[-1].val_loss, epsilon=0.05)
            depths[criterion] = accepted_depth(events, criterion)
        assert depths["strict"] <= depths["adaptive"]


def test_cascade_later_stages_keep_the_predictor_label(stable_window):
    task, hyper, window = stable_window
    events = run_cascade(window, 50, CascadeConfig(4, 25), "quadratic", "adaptive",
                         task, hyper, sigma_l=10.0, epsilon=0.05)
    assert len(events) >= 2  # a generous sigma accepts at least stage 1
    assert all(ev.predictor == "quadratic" for ev in events)


def test_accepted_depth_counts_leading_acceptances(stable_window):
    task, hyper, window = stable_window
    events = run_cascade(window, 50, CascadeConfig(4, 25), "momentum", "adaptive",
                         task, hyper, sigma_l=1e9, epsilon=0.05)
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
    first = next(c for c in res.checkpoints if c.step == res.events[0].step_from)
    expected = predict_momentum_descent(first.theta, first.m, first.v, first.step, hyper, 30)
    assert res.events[0].displacement_norm == expected.displacement_norm


def test_cascade_later_stages_reuse_the_start_moments(stable_window):
    task, hyper, window = stable_window
    start = window[-1]
    events = run_cascade(window, 50, CascadeConfig(3, 25), "momentum_descent", "adaptive",
                         task, hyper, sigma_l=1e9, epsilon=0.05)
    assert [e.stage for e in events] == [1, 2, 3]
    assert all(e.predictor == "momentum_descent" for e in events)
    # every stage repeats the start checkpoint's Adam update: equal displacements
    unit = predict_momentum_descent(start.theta, start.m, start.v, start.step, hyper, 25)
    assert [e.displacement_norm for e in events] == [unit.displacement_norm] * 3
