"""End-to-end acceptance gate.

One test per headline property, each printing a single pass/fail line under
``pytest -v``. The heavier checks share a module-scoped default experiment:
mlp-reg, seeds 42-46, 2000 steps, checkpoint spacing 50, auto-calibrated
regime thresholds, the full predictor x K sweep, and all cascade configs.
"""

from __future__ import annotations

import csv
import json
import statistics

import numpy as np
import pytest

from leapverify.config import RunConfig
from leapverify.engine import SpeculationSettings, train_run
from leapverify.harness import aggregate, build_hyper, read_sweep_csv, run_dir_for
from leapverify.predict import QUADRATIC_EXACT, predict, predict_linear, predict_quadratic
from leapverify.regime import RegimeLabel, Thresholds, classify, regime_breakdown, similarity_at
from leapverify.tasks import make_task
from leapverify.verify import decide


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    cfg = RunConfig(out=str(out))
    from leapverify.harness import run_experiment
    report = run_experiment(cfg)
    return cfg, report, out


def _labels_per_seed(cfg, out):
    labels = {}
    for seed in cfg.seeds:
        path = run_dir_for(out, cfg.task, seed) / "loss_log.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        labels[seed] = [(int(r["step"]), r["regime"]) for r in rows]
    return labels


def _cells_per_seed(cfg, out):
    return {seed: read_sweep_csv(run_dir_for(out, cfg.task, seed) / "sweep.csv", cfg.epsilon)
            for seed in cfg.seeds}


def test_predictor_exactness():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        t = float(rng.integers(10, 5000))
        delta = int(rng.integers(1, 200))
        k = int(rng.integers(1, 500))
        line = lambda s: a + b * s
        pred = predict_linear(line(t), line(t - delta), delta, k)
        truth = line(t + k)
        err = np.linalg.norm(pred.theta_hat - truth) / max(np.linalg.norm(truth), 1e-12)
        assert err <= 1e-10

    for _ in range(1000):
        a, b, c = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4)
        t = float(rng.integers(10, 5000))
        delta = int(rng.integers(1, 200))
        k = int(rng.integers(1, 500))
        parab = lambda s: a + b * s + c * s * s
        pred = predict(QUADRATIC_EXACT, (parab(t - 2 * delta), parab(t - delta), parab(t)),
                       delta, k, None, None, 0, None)
        truth = parab(t + k)
        err = np.linalg.norm(pred.theta_hat - truth) / max(np.linalg.norm(truth), 1e-12)
        assert err <= 1e-10

    # hand evaluation on theta(s) = s^2 sampled at 0, 50, 100
    s0, s1, s2 = np.array([0.0]), np.array([2500.0]), np.array([10000.0])
    # K = delta: the curvature coefficient K(K - delta) vanishes
    at_50 = predict_quadratic(s2, s1, s0, delta=50, k=50)
    assert at_50.theta_hat[0] == 17500.0
    assert at_50.theta_hat[0] == predict_linear(s2, s1, 50, 50).theta_hat[0]
    assert predict_quadratic(s2, s1, s0, delta=50, k=100).theta_hat[0] == 30000.0


def test_zero_cost_rejection():
    task = make_task("mlp-reg")
    cfg = RunConfig()
    hyper = build_hyper(cfg, task)
    thresholds = Thresholds(tau_low=0.97, tau_high=0.999)
    common = dict(total_steps=cfg.steps, delta=cfg.delta, hyper=hyper,
                  thresholds=thresholds)
    plain = train_run(task, 42, **common)
    rejected = train_run(
        task, 42, **common,
        speculation=SpeculationSettings(predictor="linear", k=50,
                                        criterion="strict", apply=False))
    assert len(rejected.events) > 0  # speculation really ran
    assert rejected.skipped_steps == 0
    assert rejected.theta_final.tobytes() == plain.theta_final.tobytes()
    assert rejected.loss_log == plain.loss_log
    assert rejected.similarities == plain.similarities
    assert rejected.adam_final.m.tobytes() == plain.adam_final.m.tobytes()
    assert rejected.adam_final.v.tobytes() == plain.adam_final.v.tobytes()


def test_momentum_catastrophe(experiment):
    cfg, report, _ = experiment
    momentum = {row["k"]: row["ratio"] for row in report["ratios"]["momentum"]}
    linear = {row["k"]: row["ratio"] for row in report["ratios"]["linear"]}
    assert sorted(momentum) == list(cfg.k_set)

    for k in cfg.k_set:
        assert momentum[k] is not None and momentum[k] > 1.0

    ordered = [momentum[k] for k in cfg.k_set]
    inversions = sum(b < a for a, b in zip(ordered, ordered[1:]))
    assert inversions <= 1

    for k in (25, 50, 75, 100):
        assert linear[k] is not None
        assert momentum[k] >= 10.0 * linear[k]


def test_graceful_degradation(experiment):
    cfg, _, out = experiment
    for seed, cells in _cells_per_seed(cfg, out).items():
        rates = {}
        for k in cfg.k_set:
            group = [c for c in cells
                     if c.predictor == "linear" and c.k == k and c.eligible
                     and c.regime in (RegimeLabel.TRANSITION, RegimeLabel.STABLE)]
            assert group, f"seed {seed} has no eligible linear cells at K={k}"
            rates[k] = sum(c.decision.proximity for c in group) / len(group)
        assert rates[5] > rates[50], f"seed {seed}: K=5 must beat K=50"
        ordered = [rates[k] for k in cfg.k_set]
        inversions = sum(b > a for a, b in zip(ordered, ordered[1:]))
        assert inversions <= 1, f"seed {seed}: acceptance not degrading in K"


def test_regime_machinery():
    th = Thresholds(tau_low=0.90, tau_high=0.99)
    target = [1.0, 0.5, 0.95, 0.995]
    angles = np.concatenate([[0.0], np.cumsum(np.arccos(target))])
    fingerprints = [np.array([np.cos(a), np.sin(a)]) for a in angles]

    sims = [similarity_at(b, a) for a, b in zip(fingerprints, fingerprints[1:])]
    assert sims == pytest.approx(target, abs=1e-12)

    labels = [RegimeLabel.UNKNOWN] + [classify(s, th) for s in sims]
    assert labels == [
        RegimeLabel.UNKNOWN, RegimeLabel.STABLE, RegimeLabel.CHAOTIC,
        RegimeLabel.TRANSITION, RegimeLabel.STABLE,
    ]
    assert set(labels) == set(RegimeLabel)

    counts = regime_breakdown(labels)
    assert counts[RegimeLabel.UNKNOWN] == 1
    assert counts[RegimeLabel.CHAOTIC] == 1
    assert counts[RegimeLabel.TRANSITION] == 1
    assert counts[RegimeLabel.STABLE] == 2


def test_regime_boundary_consistency(experiment):
    cfg, _, out = experiment
    boundaries = {}
    for seed, rows in _labels_per_seed(cfg, out).items():
        labels = [regime for _, regime in rows]
        steps = [step for step, _ in rows]
        boundary = None
        for i in range(1, len(labels)):
            if labels[i - 1] == "chaotic" and labels[i] != "chaotic":
                boundary = steps[i]
                break
        assert boundary is not None, f"seed {seed} never left the chaotic regime"
        boundaries[seed] = boundary
    median = statistics.median(boundaries.values())
    for seed, step in boundaries.items():
        assert abs(step - median) <= 2 * cfg.delta, (
            f"seed {seed} boundary {step} deviates from median {median} "
            f"by more than 2 checkpoints")


def test_aggregation_correctness(experiment):
    cfg, report, out = experiment
    # every published rate is exactly its accepted/denominator receipt
    for table in (report["acceptance"], report["cov"]):
        for stat in table.values():
            for p in stat["per_seed"]:
                assert p["denominator"] > 0
                assert p["rate"] == 100.0 * p["accepted"] / p["denominator"]
            assert stat["mean"] == pytest.approx(
                sum(p["rate"] for p in stat["per_seed"]) / len(stat["per_seed"]))
            if stat["mean"] == 0.0:
                assert stat["cov"] is None

    # identical per-seed rates give CoV exactly 0
    def cell(seed, accept):
        l_hat = 0.5 if accept else 2.0
        from leapverify.harness import SweepCell
        return SweepCell(seed=seed, checkpoint_step=50, regime=RegimeLabel.STABLE,
                         predictor="momentum", k=5, l_hat=l_hat, l_t=1.0,
                         decision=decide(l_hat, 1.0, None, 0.05),
                         displacement_norm=1.0, eligible=True)
    synthetic = [cell(1, True), cell(1, False), cell(2, True), cell(2, False)]
    stat = aggregate(synthetic, [], {1: [], 2: []}, {})["cov"]["momentum|5|strict"]
    assert stat["std"] == 0.0
    assert stat["cov"] == 0.0

    # seed order cannot change a single reported value
    cells = [c for seed_cells in _cells_per_seed(cfg, out).values() for c in seed_cells]
    labels = {seed: [RegimeLabel(regime) for _, regime in rows]
              for seed, rows in _labels_per_seed(cfg, out).items()}
    forward = aggregate(cells, [], labels, {})
    backward = aggregate(list(reversed(cells)), [],
                         dict(reversed(list(labels.items()))), {})
    assert forward == backward


def test_protocol_fidelity(experiment):
    cfg, report, out = experiment
    assert cfg.k_set == (5, 10, 25, 50, 75, 100)
    labels = _labels_per_seed(cfg, out)
    stable_steps = {seed: {step for step, regime in rows if regime == "stable"}
                    for seed, rows in labels.items()}
    for seed, cells in _cells_per_seed(cfg, out).items():
        assert len(labels[seed]) == 40  # 2000 steps / delta 50
        assert len(cells) <= 40 * 3 * 6 == 720
        assert 3 * len(cells) <= 2160  # three criteria per evaluated cell

        cascade_file = run_dir_for(out, cfg.task, seed) / "cascades.jsonl"
        rows = [json.loads(line) for line in cascade_file.read_text().splitlines()]
        assert rows, f"seed {seed} produced no cascade starts"
        assert {(r["depth"], r["k"]) for r in rows} <= {(4, 25), (2, 50), (10, 10)}
        for r in rows:
            assert r["start_step"] in stable_steps[seed]

    # a run without stable checkpoints degrades to an annotated empty table
    empty = aggregate([], [], {1: [RegimeLabel.TRANSITION]}, {})
    assert empty["cascades"] == []
    assert "zero denominators" in empty["cascade_note"]


def test_gradient_check():
    rng = np.random.default_rng(7)
    h = 1e-5
    for name in ("quad-bowl", "mlp-reg", "char-seq"):
        task = make_task(name)
        theta = task.init_params(3)
        batch = task.batch(3, 17)
        g = task.loss_and_grad(theta, batch).grad
        for _ in range(100):
            u = rng.standard_normal(task.param_dim)
            u /= np.linalg.norm(u)
            analytic = float(np.dot(g, u))
            plus = task.loss_and_grad(theta + h * u, batch).loss
            minus = task.loss_and_grad(theta - h * u, batch).loss
            numeric = (plus - minus) / (2.0 * h)
            denom = max(abs(analytic), abs(numeric), 1e-8)
            assert abs(analytic - numeric) / denom <= 1e-5, name
