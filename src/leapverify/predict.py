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
``momentum_variant`` and ``quad_variant`` settings; resolve_predictor is the
one place that turns that choice into a formula name. Live speculation and
every cascade stage predict through predict() and score the exact weights
they would apply. The offline sweep predicts a whole K grid through
predict_grid(), which computes the directions once and hands them with the
coefficient matrix to Task.affine_losses. Both build theta_hat through the
one _combine, so a grid prediction is bit-identical to predict()'s.

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


def _differences(theta_t: np.ndarray, theta_prev: np.ndarray,
                 theta_prev2: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The velocity theta_t - theta_prev and, given theta_prev2, the second difference."""
    velocity = theta_t - theta_prev
    if theta_prev2 is None:
        return (velocity,)
    return velocity, theta_t - 2.0 * theta_prev + theta_prev2


def predict_momentum(theta_t: np.ndarray, m: np.ndarray, v: np.ndarray,
                     k: int, eps: float) -> Prediction:
    """theta + K * m/(sqrt(v)+eps), raw moments, additive sign, no lr factor."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    return _combine(MOMENTUM, theta_t, (_momentum_unit(m, v, eps),), k)


def predict_momentum_descent(theta_t: np.ndarray, m: np.ndarray, v: np.ndarray,
                             step: int, hyper: AdamHyper, k: int) -> Prediction:
    """Descent-flavored momentum: theta - K * lr * m_hat/(sqrt(v_hat)+eps).

    Uses the moments bias-corrected for `step` updates and the scheduled
    learning rate at that step, i.e. K repeats of the current Adam update
    direction.
    """
    return _combine(MOMENTUM_DESCENT, theta_t, (_descent_unit(m, v, step, hyper),), k)


def predict_linear(theta_t: np.ndarray, theta_prev: np.ndarray,
                   delta: int, k: int) -> Prediction:
    """theta + (K/delta) * (theta - theta_prev)."""
    return _combine(LINEAR, theta_t, _differences(theta_t, theta_prev), k, delta)


def predict_quadratic(theta_t: np.ndarray, theta_prev: np.ndarray,
                      theta_prev2: np.ndarray, delta: int, k: int) -> Prediction:
    """Parabola through three checkpoints, curvature coefficient K(K-delta)."""
    return _combine(QUADRATIC, theta_t, _differences(theta_t, theta_prev, theta_prev2), k, delta)


def predict_quadratic_exact(theta_t: np.ndarray, theta_prev: np.ndarray,
                            theta_prev2: np.ndarray, delta: int, k: int) -> Prediction:
    """Quadratic variant with coefficient K(K+delta): exact on parabolic trajectories."""
    return _combine(QUADRATIC_EXACT, theta_t, _differences(theta_t, theta_prev, theta_prev2),
                    k, delta)


@dataclass(frozen=True)
class Formula:
    family: str         # label of sweep rows and reports
    history: int        # checkpoints needed, the current one included
    coeffs: Callable[[int, int], tuple[float, ...]]  # (K, delta) -> c_j
    directions: Callable[..., tuple[np.ndarray, ...]]
    fn: Callable[..., Prediction]
    scaled_norm: bool = False  # displacement c_1 * ||D_1||, not ||theta_hat - theta_t||


def _k_coeff(k: int, delta: int) -> tuple[float, ...]:
    return (float(k),)


# directions takes (thetas, m, v, step, hyper) and fn (thetas, spacing, k, m,
# v, step, hyper); fn calls its predict_* function by module-level name, so a
# wrapper installed on the module attribute sees every call of predict().
FORMULAS = {
    MOMENTUM: Formula(
        MOMENTUM, 1, _k_coeff,
        lambda th, m, v, step, h: (_momentum_unit(m, v, h.eps),),
        lambda th, dt, k, m, v, step, h: predict_momentum(th[-1], m, v, k, h.eps),
        scaled_norm=True),
    MOMENTUM_DESCENT: Formula(
        MOMENTUM, 1, _k_coeff,
        lambda th, m, v, step, h: (_descent_unit(m, v, step, h),),
        lambda th, dt, k, m, v, step, h: predict_momentum_descent(th[-1], m, v, step, h, k),
        scaled_norm=True),
    LINEAR: Formula(
        LINEAR, 2, lambda k, dt: (k / dt,),
        lambda th, *_: _differences(th[-1], th[-2]),
        lambda th, dt, k, *_: predict_linear(th[-1], th[-2], dt, k)),
    QUADRATIC: Formula(
        QUADRATIC, 3, lambda k, dt: (k / dt, float(k) * (k - dt) / (2.0 * dt * dt)),
        lambda th, *_: _differences(th[-1], th[-2], th[-3]),
        lambda th, dt, k, *_: predict_quadratic(th[-1], th[-2], th[-3], dt, k)),
    QUADRATIC_EXACT: Formula(
        QUADRATIC, 3, lambda k, dt: (k / dt, float(k) * (k + dt) / (2.0 * dt * dt)),
        lambda th, *_: _differences(th[-1], th[-2], th[-3]),
        lambda th, dt, k, *_: predict_quadratic_exact(th[-1], th[-2], th[-3], dt, k)),
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
    history is too short for the formula.
    """
    return _formula(formula, thetas).fn(thetas, spacing, k, m, v, step, hyper)


def predict_grid(formula: str, thetas: Sequence[np.ndarray], spacing: int, ks: Sequence[int],
                 m: np.ndarray, v: np.ndarray, step: int, hyper: AdamHyper,
                 ) -> tuple[tuple[np.ndarray, ...], np.ndarray, list[Prediction]]:
    """predict() at every K of `ks`, from directions computed once.

    Returns (directions, coeffs, predictions): predictions[i] is predict()'s
    prediction at ks[i], bit for bit, and its theta_hat is thetas[-1] +
    sum_j coeffs[i, j] * directions[j].
    """
    entry = _formula(formula, thetas)
    directions = entry.directions(thetas, m, v, step, hyper)
    preds = [_combine(formula, thetas[-1], directions, k, spacing) for k in ks]
    coeffs = np.array([entry.coeffs(k, spacing) for k in ks], dtype=np.float64)
    return directions, coeffs.reshape(len(preds), len(directions)), preds


def _formula(formula: str, thetas: Sequence[np.ndarray]) -> Formula:
    entry = FORMULAS.get(formula)
    if entry is None:
        raise ValueError(f"unknown predictor {formula!r}")
    if len(thetas) < entry.history:
        raise InsufficientHistoryError(
            f"{formula} needs {entry.history} checkpoints, have {len(thetas)}")
    return entry
