"""Analytic weight predictors: one table of formulas, one dispatch.

Five formulas forecast parameters K steps ahead of a checkpoint, and each is
affine in its coefficients: theta_hat = theta_t + sum_j c_j(K, delta) * D_j,
where the directions D_j depend on the history window but not on K. FORMULAS
names each by the formula actually evaluated and records its directions, its
coefficients, the checkpoints of history it needs and the family label that
sweep rows and reports print:

* ``momentum``         -- D = m / (sqrt(v) + eps) from the optimizer's raw
  moment EMAs, c = K. Extrapolates the current update direction at constant
  velocity; prone to norm explosion at large K.
* ``momentum_descent`` -- D = -lr * m_hat / (sqrt(v_hat) + eps), c = K: K
  repeats of the current Adam update (bias-corrected moments, scheduled lr).
* ``linear``           -- D = theta - theta_prev, the finite-difference
  velocity of the observed trajectory, c = K/delta.
* ``quadratic``        -- adds the second difference of the last three
  checkpoints as D_2, with c_2 = K(K-delta)/(2 delta^2).
* ``quadratic_exact``  -- same structure with c_2 = K(K+delta)/(2 delta^2),
  which is the polynomial-interpolation coefficient that reproduces
  trajectories exactly quadratic in the step index.

The user names a family (``momentum``, ``linear``, ``quadratic``) plus the
``momentum_variant`` and ``quad_variant`` settings; resolve_predictor turns
that choice into a formula name. Each formula names its directions in the
DIRECTIONS table, so formulas that share one (linear and quadratic share the
velocity) can share its computation. predict_grid() is the one dispatch: it
computes each named direction once and builds every theta_hat in _combine.
predict() is predict_grid() at one formula and one K, and
predict_momentum, predict_linear and predict_quadratic, the paper's formula
of each family, are one-line calls of predict(). The live loop scores
predict()'s exact weights; the sweep hands predict_grid()'s directions and
coefficient matrices to Task.affine_losses. Pass 3 takes a cascade's stage 1
from predict_grid() and its loss from the sweep, and run_cascade walks on:
stage n scores theta_t + n * (stage 1's displacement), so a quadratic
cascade's curvature enters only in stage 1.

Predicted vectors may be non-finite (momentum at large K can overflow); that
is recorded in Prediction.finite rather than raised, and the verifier treats
it as an automatic rejection.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .core import affine_combination, freeze, is_finite, l2_norm
from .optim import AdamHyper, lr_at

MOMENTUM = "momentum"
MOMENTUM_DESCENT = "momentum_descent"
LINEAR = "linear"
QUADRATIC = "quadratic"
QUADRATIC_EXACT = "quadratic_exact"

# the families a user selects; the variants pick the formula within a family
SWEEP_PREDICTORS = (MOMENTUM, LINEAR, QUADRATIC)
MOMENTUM_VARIANTS = ("paper", "descent")
QUAD_VARIANTS = ("paper", "exact")


class InsufficientHistoryError(ValueError):
    """Too few checkpoints of history for the requested formula."""


@dataclass(frozen=True)
class Prediction:
    predictor: str
    k: int
    theta_hat: np.ndarray
    displacement_norm: float
    finite: bool


def _combine(formula: str, theta_t: np.ndarray, directions: Sequence[np.ndarray],
             k: int, delta: int = 1) -> Prediction:
    """theta_t + sum_j c_j(K, delta) * D_j for the named formula."""
    if k < 1:
        raise ValueError("K must be >= 1")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    entry = FORMULAS[formula]
    coeffs = entry.coeffs(k, delta)
    theta_hat = affine_combination(theta_t, coeffs, directions)
    if entry.scaled_norm:
        # K * ||D|| keeps the momentum displacement exactly linear in K
        displacement = coeffs[0] * l2_norm(directions[0])
    else:
        displacement = l2_norm(theta_hat - theta_t)
    return Prediction(predictor=formula, k=k, theta_hat=freeze(theta_hat),
                      displacement_norm=displacement, finite=is_finite(theta_hat))


def _momentum_unit(m: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    return m / (np.sqrt(v) + eps)


def _descent_unit(m: np.ndarray, v: np.ndarray, step: int, hyper: AdamHyper) -> np.ndarray:
    """-lr * m_hat/(sqrt(v_hat)+eps), moments bias-corrected for `step` updates."""
    t = max(step, 1)
    m_hat = m / (1.0 - hyper.beta1**t)
    v_hat = v / (1.0 - hyper.beta2**t)
    return -(lr_at(hyper, min(step, hyper.total_steps)) * m_hat / (np.sqrt(v_hat) + hyper.eps))


def predict_momentum(theta_t: np.ndarray, m: np.ndarray, v: np.ndarray,
                     k: int, eps: float) -> Prediction:
    """theta + K * m/(sqrt(v)+eps), raw moments, additive sign, no lr factor."""
    return predict(MOMENTUM, (theta_t,), 1, k, m, v, 0, AdamHyper(eps=eps))


def predict_linear(theta_t: np.ndarray, theta_prev: np.ndarray,
                   delta: int, k: int) -> Prediction:
    """theta + (K/delta) * (theta - theta_prev)."""
    return predict(LINEAR, (theta_prev, theta_t), delta, k, None, None, 0, None)


def predict_quadratic(theta_t: np.ndarray, theta_prev: np.ndarray,
                      theta_prev2: np.ndarray, delta: int, k: int) -> Prediction:
    """Parabola through three checkpoints, curvature coefficient K(K-delta)."""
    return predict(QUADRATIC, (theta_prev2, theta_prev, theta_t), delta, k, None, None, 0, None)


# the directions formulas combine: (thetas, m, v, step, hyper) -> D, thetas oldest first
DIRECTIONS: dict[str, Callable[..., np.ndarray]] = {
    "momentum_unit": lambda th, m, v, step, h: _momentum_unit(m, v, h.eps),
    "descent_unit": lambda th, m, v, step, h: _descent_unit(m, v, step, h),
    "velocity": lambda th, *_: th[-1] - th[-2],
    "curvature": lambda th, *_: th[-1] - 2.0 * th[-2] + th[-3],
}


@dataclass(frozen=True)
class Formula:
    family: str         # label of sweep rows and reports
    history: int        # checkpoints needed, the current one included
    coeffs: Callable[[int, int], tuple[float, ...]]  # (K, delta) -> c_j
    directions: tuple[str, ...]  # D_j, named in DIRECTIONS
    scaled_norm: bool = False  # displacement c_1 * ||D_1||, not ||theta_hat - theta_t||


def _k_coeff(k: int, delta: int) -> tuple[float, ...]:
    return (float(k),)


FORMULAS = {
    MOMENTUM: Formula(MOMENTUM, 1, _k_coeff, ("momentum_unit",), scaled_norm=True),
    MOMENTUM_DESCENT: Formula(MOMENTUM, 1, _k_coeff, ("descent_unit",), scaled_norm=True),
    LINEAR: Formula(LINEAR, 2, lambda k, dt: (k / dt,), ("velocity",)),
    QUADRATIC: Formula(
        QUADRATIC, 3, lambda k, dt: (k / dt, float(k) * (k - dt) / (2.0 * dt * dt)),
        ("velocity", "curvature")),
    QUADRATIC_EXACT: Formula(
        QUADRATIC, 3, lambda k, dt: (k / dt, float(k) * (k + dt) / (2.0 * dt * dt)),
        ("velocity", "curvature")),
}


def resolve_predictor(predictor: str, quad_variant: str = "paper",
                      momentum_variant: str = "paper") -> str:
    """Map a predictor family and its variant settings to the formula evaluated.

    A formula name maps to itself whatever the variants say, so resolving
    twice is harmless.
    """
    if predictor not in FORMULAS:
        raise ValueError(f"unknown predictor {predictor!r}")
    if quad_variant not in QUAD_VARIANTS:
        raise ValueError(f"unknown quad variant {quad_variant!r}")
    if momentum_variant not in MOMENTUM_VARIANTS:
        raise ValueError(f"unknown momentum variant {momentum_variant!r}")
    if predictor == QUADRATIC and quad_variant == "exact":
        return QUADRATIC_EXACT
    if predictor == MOMENTUM and momentum_variant == "descent":
        return MOMENTUM_DESCENT
    return predictor


def predict(formula: str, thetas: Sequence[np.ndarray], spacing: int, k: int,
            m: np.ndarray, v: np.ndarray, step: int, hyper: AdamHyper) -> Prediction:
    """Predict K steps past thetas[-1] with the named formula.

    `thetas` is the trajectory history, oldest first, at uniform `spacing`
    steps. m, v and step are the raw Adam moments and update count the
    momentum formulas extrapolate. Raises InsufficientHistoryError when the
    history is too short for the formula. It is predict_grid() at one
    formula and one K.
    """
    return predict_grid((formula,), thetas, spacing, (k,), m, v, step, hyper)[0][2][0]


def predict_grid(formulas: Sequence[str], thetas: Sequence[np.ndarray], spacing: int,
                 ks: Sequence[int], m: np.ndarray, v: np.ndarray, step: int, hyper: AdamHyper,
                 ) -> list[tuple[tuple[np.ndarray, ...], np.ndarray, list[Prediction]]]:
    """Predict with every formula of `formulas` at every K of `ks`: the one dispatch.

    Returns one (directions, coeffs, predictions) triple per formula:
    predictions[i] is the prediction at ks[i], predict()'s bit for bit, and
    its theta_hat is thetas[-1] + sum_j coeffs[i, j] * directions[j]. Each
    named direction is computed once, and formulas that share it share the
    array. Raises as predict() does.
    """
    computed: dict[str, np.ndarray] = {}
    grids = []
    for formula in formulas:
        entry = FORMULAS.get(formula)
        if entry is None:
            raise ValueError(f"unknown predictor {formula!r}")
        if len(thetas) < entry.history:
            raise InsufficientHistoryError(
                f"{formula} needs {entry.history} checkpoints, have {len(thetas)}")
        for name in entry.directions:
            if name not in computed:
                computed[name] = DIRECTIONS[name](thetas, m, v, step, hyper)
        directions = tuple(computed[name] for name in entry.directions)
        preds = [_combine(formula, thetas[-1], directions, k, spacing) for k in ks]
        coeffs = np.array([entry.coeffs(k, spacing) for k in ks], dtype=np.float64)
        grids.append((directions, coeffs.reshape(len(preds), len(directions)), preds))
    return grids
