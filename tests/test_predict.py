from __future__ import annotations

import math

import numpy as np
import pytest

from leapverify.optim import AdamHyper
from leapverify.predict import (
    FORMULAS,
    QUADRATIC_EXACT,
    SWEEP_PREDICTORS,
    predict,
    predict_linear,
    predict_momentum,
    predict_quadratic,
)


def test_history_requirements():
    assert {name: f.history for name, f in FORMULAS.items()} == {
        "momentum": 1, "momentum_descent": 1, "linear": 2,
        "quadratic": 3, "quadratic_exact": 3,
    }
    assert {name: f.family for name, f in FORMULAS.items()} == {
        "momentum": "momentum", "momentum_descent": "momentum", "linear": "linear",
        "quadratic": "quadratic", "quadratic_exact": "quadratic",
    }
    assert SWEEP_PREDICTORS == ("momentum", "linear", "quadratic")


def test_momentum_hand_example():
    theta = np.array([1.0, 2.0])
    m = np.array([0.3, -0.6])
    v = np.array([0.09, 0.36])
    pred = predict_momentum(theta, m, v, k=10, eps=1e-8)
    # m/sqrt(v) is (1, -1) up to eps, so the step is K per coordinate
    assert np.allclose(pred.theta_hat, [11.0, -8.0], rtol=1e-7)
    assert pred.finite
    assert pred.predictor == "momentum"
    assert pred.k == 10


def test_momentum_displacement_linear_in_k():
    rng = np.random.default_rng(11)
    theta = rng.standard_normal(50)
    m = rng.standard_normal(50)
    v = rng.random(50)
    for k in (5, 10, 25, 50):
        d1 = predict_momentum(theta, m, v, k, 1e-8).displacement_norm
        d2 = predict_momentum(theta, m, v, 2 * k, 1e-8).displacement_norm
        assert d2 == 2.0 * d1  # doubling K scales the exponent only


def test_momentum_nonfinite_is_flagged_not_raised():
    theta = np.array([1.0])
    pred = predict_momentum(theta, np.array([float("inf")]), np.array([1.0]), 5, 1e-8)
    assert not pred.finite


def test_momentum_descent_variant_moves_against_update_direction():
    h = AdamHyper(lr=0.1, warmup_steps=0, total_steps=100, weight_decay=0.0)
    theta, m, v = np.zeros(2), np.array([0.09, 0.0]), np.array([0.0081, 0.0])
    step, k = 20, 10
    pred = predict("momentum_descent", [theta], 50, k, m, v, step, h)
    assert pred.predictor == "momentum_descent"
    # positive gradient EMA means descent goes negative
    assert pred.theta_hat[0] < 0
    assert pred.theta_hat[1] == 0.0
    assert pred.displacement_norm == pytest.approx(abs(pred.theta_hat[0]))
    # K repeats of the Adam update: -K * lr * m_hat / (sqrt(v_hat) + eps), with
    # bias-corrected moments and the cosine-scheduled lr at `step`
    lr = 0.5 * 0.1 * (1.0 + math.cos(math.pi * step / 100))
    m_hat, v_hat = m / (1.0 - 0.9**step), v / (1.0 - 0.999**step)
    want = theta - k * lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert pred.theta_hat == pytest.approx(want, rel=1e-12, abs=0)


def test_linear_exact_on_affine_trajectories():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        t = float(rng.integers(100, 1000))
        delta = int(rng.integers(1, 100))
        k = int(rng.integers(1, 200))
        theta = lambda s: a + b * s
        pred = predict_linear(theta(t), theta(t - delta), delta, k)
        truth = theta(t + k)
        rel = np.linalg.norm(pred.theta_hat - truth) / max(np.linalg.norm(truth), 1e-12)
        assert rel <= 1e-10


def test_quadratic_frozen_scalar_examples():
    # trajectory theta(s) = s^2 sampled at steps 0, 50, 100
    prev2, prev, curr = np.array([0.0]), np.array([2500.0]), np.array([10000.0])
    assert predict_quadratic(curr, prev, prev2, delta=50, k=50).theta_hat[0] == 17500.0
    assert predict_quadratic(curr, prev, prev2, delta=50, k=100).theta_hat[0] == 30000.0
    # the exact-variant coefficient recovers theta(150) and theta(200)
    assert predict(QUADRATIC_EXACT, (prev2, prev, curr), 50, 50, None, None, 0,
                   None).theta_hat[0] == 22500.0
    assert predict(QUADRATIC_EXACT, (prev2, prev, curr), 50, 100, None, None, 0,
                   None).theta_hat[0] == 40000.0


def test_quadratic_exact_on_parabolic_trajectories():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        c = rng.standard_normal(5)
        t = float(rng.integers(200, 2000))
        delta = int(rng.integers(1, 100))
        k = int(rng.integers(1, 200))
        theta = lambda s: a + b * s + c * s * s
        pred = predict(QUADRATIC_EXACT, (theta(t - 2 * delta), theta(t - delta), theta(t)),
                       delta, k, None, None, 0, None)
        truth = theta(t + k)
        rel = np.linalg.norm(pred.theta_hat - truth) / max(np.linalg.norm(truth), 1e-12)
        assert rel <= 1e-10


def test_quadratic_collapses_to_linear_without_curvature():
    a = np.array([3.0, -1.0])
    b = np.array([0.5, 2.0])
    theta = lambda s: a + b * s
    pred_q = predict_quadratic(theta(100.0), theta(50.0), theta(0.0), 50, 75)
    pred_l = predict_linear(theta(100.0), theta(50.0), 50, 75)
    assert np.allclose(pred_q.theta_hat, pred_l.theta_hat, rtol=0, atol=1e-12)


def test_predictor_argument_validation():
    v = np.ones(2)
    with pytest.raises(ValueError):
        predict_momentum(v, v, v, k=0, eps=1e-8)
    with pytest.raises(ValueError):
        predict_momentum(v, v, v, k=5, eps=0.0)
    with pytest.raises(ValueError):
        predict_linear(v, v, delta=0, k=5)
    with pytest.raises(ValueError):
        predict_quadratic(v, v, v, delta=50, k=0)


def test_predictions_do_not_alias_inputs():
    theta = np.ones(3)
    pred = predict_linear(theta, np.zeros(3), 10, 10)
    assert pred.theta_hat is not theta
    assert not pred.theta_hat.flags.writeable
    assert pred.displacement_norm == pytest.approx(np.sqrt(3.0))


def test_predict_dispatches_each_formula_on_the_history():
    h = AdamHyper(lr=0.1, warmup_steps=0, total_steps=100)
    rng = np.random.default_rng(3)
    t0, t1, t2, m = (rng.standard_normal(4) for _ in range(4))
    v = rng.random(4)
    thetas = [t0, t1, t2]
    expected = {
        "momentum": predict_momentum(t2, m, v, 25, h.eps),
        "linear": predict_linear(t2, t1, 10, 25),
        "quadratic": predict_quadratic(t2, t1, t0, 10, 25),
        "quadratic_exact": predict(QUADRATIC_EXACT, (t0, t1, t2), 10, 25, None, None, 0, None),
    }
    for name, want in expected.items():
        got = predict(name, thetas, 10, 25, m, v, 30, h)
        assert got.predictor == name
        assert got.theta_hat.tobytes() == want.theta_hat.tobytes()
        assert got.displacement_norm == want.displacement_norm

