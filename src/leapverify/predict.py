"""Analytic weight predictors: one table of formulas, one dispatch.

Five formulas forecast parameters K steps ahead of a checkpoint. FORMULAS
names each by the formula actually evaluated and records the checkpoints of
history it needs and the family label that sweep rows and reports print:

* ``momentum``         -- theta + K * m / (sqrt(v) + eps) from the optimizer's
  raw moment EMAs. Extrapolates the current update direction at constant
  velocity; prone to norm explosion at large K.
* ``momentum_descent`` -- theta - K * lr * m_hat / (sqrt(v_hat) + eps), K
  repeats of the current Adam update (bias-corrected moments, scheduled lr).
* ``linear``           -- theta + (K/delta) * (theta - theta_prev), the
  finite-difference velocity of the observed trajectory.
* ``quadratic``        -- adds a curvature term with coefficient
  K(K-delta)/(2 delta^2) on the second difference of the last three
  checkpoints.
* ``quadratic_exact``  -- same structure with coefficient K(K+delta)/(2 delta^2),
  which is the polynomial-interpolation coefficient that reproduces
  trajectories exactly quadratic in the step index.

The user names a family (``momentum``, ``linear``, ``quadratic``) plus the
``momentum_variant`` and ``quad_variant`` settings; resolve_predictor is the
one place that turns that choice into a formula name. Live speculation, the
offline sweep and every cascade stage then predict through predict().

Predicted vectors may be non-finite (momentum at large K can overflow); that
is recorded in Prediction.finite rather than raised, and the verifier treats
it as an automatic rejection.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .core import freeze, is_finite, l2_norm
from .optim import AdamHyper, lr_at
from .trajectory import InsufficientHistoryError

MOMENTUM = "momentum"
MOMENTUM_DESCENT = "momentum_descent"
LINEAR = "linear"
QUADRATIC = "quadratic"
QUADRATIC_EXACT = "quadratic_exact"

# the families a user selects; the variants pick the formula within a family
SWEEP_PREDICTORS = (MOMENTUM, LINEAR, QUADRATIC)
MOMENTUM_VARIANTS = ("paper", "descent")
QUAD_VARIANTS = ("paper", "exact")


@dataclass(frozen=True)
class Prediction:
    predictor: str
    k: int
    theta_hat: np.ndarray
    displacement_norm: float
    finite: bool


def _finish(predictor: str, k: int, theta_hat: np.ndarray,
            displacement_norm: float | None = None,
            theta_t: np.ndarray | None = None) -> Prediction:
    if displacement_norm is None:
        displacement_norm = l2_norm(theta_hat - theta_t)
    return Prediction(
        predictor=predictor,
        k=k,
        theta_hat=freeze(theta_hat),
        displacement_norm=displacement_norm,
        finite=is_finite(theta_hat),
    )


def _check_k_delta(k: int, delta: int | None = None) -> None:
    if k < 1:
        raise ValueError("K must be >= 1")
    if delta is not None and delta < 1:
        raise ValueError("delta must be >= 1")


def predict_momentum(theta_t: np.ndarray, m: np.ndarray, v: np.ndarray,
                     k: int, eps: float) -> Prediction:
    """theta + K * m/(sqrt(v)+eps), raw moments, additive sign, no lr factor."""
    _check_k_delta(k)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    unit = m / (np.sqrt(v) + eps)
    # K * ||unit|| keeps displacement exactly linear in K
    return _finish(MOMENTUM, k, theta_t + k * unit, displacement_norm=k * l2_norm(unit))


def predict_momentum_descent(theta_t: np.ndarray, m: np.ndarray, v: np.ndarray,
                             step: int, hyper: AdamHyper, k: int) -> Prediction:
    """Descent-flavored momentum: theta - K * lr * m_hat/(sqrt(v_hat)+eps).

    Uses the moments bias-corrected for `step` updates and the scheduled
    learning rate at that step, i.e. K repeats of the current Adam update
    direction.
    """
    _check_k_delta(k)
    t = max(step, 1)
    m_hat = m / (1.0 - hyper.beta1**t)
    v_hat = v / (1.0 - hyper.beta2**t)
    unit = lr_at(hyper, min(step, hyper.total_steps)) * m_hat / (np.sqrt(v_hat) + hyper.eps)
    return _finish(MOMENTUM_DESCENT, k, theta_t - k * unit, displacement_norm=k * l2_norm(unit))


def predict_linear(theta_t: np.ndarray, theta_prev: np.ndarray,
                   delta: int, k: int) -> Prediction:
    """theta + (K/delta) * (theta - theta_prev)."""
    _check_k_delta(k, delta)
    theta_hat = theta_t + (k / delta) * (theta_t - theta_prev)
    return _finish(LINEAR, k, theta_hat, theta_t=theta_t)


def _quadratic(predictor: str, coeff_num: float, theta_t, theta_prev, theta_prev2,
               delta: int, k: int) -> Prediction:
    velocity = theta_t - theta_prev
    second_diff = theta_t - 2.0 * theta_prev + theta_prev2
    theta_hat = theta_t + (k / delta) * velocity + (coeff_num / (2.0 * delta * delta)) * second_diff
    return _finish(predictor, k, theta_hat, theta_t=theta_t)


def predict_quadratic(theta_t: np.ndarray, theta_prev: np.ndarray,
                      theta_prev2: np.ndarray, delta: int, k: int) -> Prediction:
    """Parabola through three checkpoints, curvature coefficient K(K-delta)."""
    _check_k_delta(k, delta)
    return _quadratic(QUADRATIC, float(k) * (k - delta), theta_t, theta_prev,
                      theta_prev2, delta, k)


def predict_quadratic_exact(theta_t: np.ndarray, theta_prev: np.ndarray,
                            theta_prev2: np.ndarray, delta: int, k: int) -> Prediction:
    """Quadratic variant with coefficient K(K+delta): exact on parabolic trajectories."""
    _check_k_delta(k, delta)
    return _quadratic(QUADRATIC_EXACT, float(k) * (k + delta), theta_t, theta_prev,
                      theta_prev2, delta, k)


@dataclass(frozen=True)
class Formula:
    family: str   # label of sweep rows and reports
    history: int  # checkpoints needed, the current one included
    fn: Callable[..., Prediction]


# Each fn takes (thetas, spacing, k, m, v, step, hyper) and calls its
# predict_* function by module-level name, so a wrapper installed on the
# module attribute sees every call.
FORMULAS = {
    MOMENTUM: Formula(MOMENTUM, 1, lambda th, dt, k, m, v, step, h:
                      predict_momentum(th[-1], m, v, k, h.eps)),
    MOMENTUM_DESCENT: Formula(MOMENTUM, 1, lambda th, dt, k, m, v, step, h:
                              predict_momentum_descent(th[-1], m, v, step, h, k)),
    LINEAR: Formula(LINEAR, 2, lambda th, dt, k, *_:
                    predict_linear(th[-1], th[-2], dt, k)),
    QUADRATIC: Formula(QUADRATIC, 3, lambda th, dt, k, *_:
                       predict_quadratic(th[-1], th[-2], th[-3], dt, k)),
    QUADRATIC_EXACT: Formula(QUADRATIC, 3, lambda th, dt, k, *_:
                             predict_quadratic_exact(th[-1], th[-2], th[-3], dt, k)),
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
    entry = FORMULAS.get(formula)
    if entry is None:
        raise ValueError(f"unknown predictor {formula!r}")
    if len(thetas) < entry.history:
        raise InsufficientHistoryError(
            f"{formula} needs {entry.history} checkpoints, have {len(thetas)}")
    return entry.fn(thetas, spacing, k, m, v, step, hyper)
