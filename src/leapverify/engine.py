"""The leap loop: speculate at checkpoints, verify, fast-forward on accept.

Speculation is free of side effects by construction: minibatches are a pure
function of (seed, step), predictors are pure, and verification only reads
the fixed held-out set. A rejected prediction therefore leaves the training
trajectory bit-identical to a run that never speculated, which is the
contract the force-reject mode exists to demonstrate.

On an accepted leap the parameters jump to the predicted vector, the global
step advances by K, the optimizer clock fast-forwards under the configured
policy, and the finite-difference history window is cleared -- predicted
states must never masquerade as observed checkpoint deltas. The next
checkpoint lands on the next multiple of delta strictly after the landing
step.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import freeze, is_finite
from .optim import AdamHyper, AdamState, apply_update, fast_forward, init_state, snapshot_moments
from .predict import (
    HISTORY_REQUIRED,
    LINEAR,
    MOMENTUM,
    PREDICTORS,
    QUADRATIC,
    QUADRATIC_EXACT,
    Prediction,
    predict_linear,
    predict_momentum,
    predict_momentum_descent,
    predict_quadratic,
    predict_quadratic_exact,
)
from .regime import RegimeLabel, Thresholds, classify, similarity_at
from .tasks import Task
from .trajectory import (
    Checkpoint,
    HistoryWindow,
    InsufficientHistoryError,
    record_checkpoint,
    recent_loss_std,
)
from .verify import Decision, decide

FF_POLICIES = ("carry", "decay")
MOMENTUM_VARIANTS = ("paper", "descent")


class RunDivergedError(RuntimeError):
    """Training reached a non-finite state and was aborted."""


class IneligibleError(ValueError):
    """Speculation requested where its preconditions do not hold."""


@dataclass(frozen=True)
class SpeculationSettings:
    """How the live loop speculates at each eligible checkpoint."""

    predictor: str = LINEAR
    k: int = 50
    criterion: str = "strict"
    apply: bool = True          # False: verify but never leap (force-reject)
    regime_gating: bool = True  # suppress speculation in chaotic/unknown


@dataclass(frozen=True)
class CascadeConfig:
    depth: int
    k: int

    def __post_init__(self) -> None:
        if self.depth < 1 or self.k < 1:
            raise ValueError("cascade depth and K must be >= 1")


@dataclass(frozen=True)
class LeapEvent:
    step_from: int
    k: int
    predictor: str
    decision: Decision
    applied: bool
    criterion_used: str
    regime_at_leap: RegimeLabel
    displacement_norm: float
    stage: int = 1

    def to_json(self) -> dict:
        d = self.decision
        return {
            "step_from": self.step_from,
            "k": self.k,
            "predictor": self.predictor,
            "stage": self.stage,
            "applied": self.applied,
            "criterion_used": self.criterion_used,
            "regime_at_leap": self.regime_at_leap.value,
            "displacement_norm": self.displacement_norm,
            "decision": {
                "strict": d.strict,
                "adaptive": d.adaptive,
                "proximity": d.proximity,
                "l_hat": d.l_hat,
                "l_t": d.l_t,
                "sigma_l": d.sigma_l,
                "epsilon": d.epsilon,
                "reason": d.reason,
            },
        }


@dataclass
class RunResult:
    task_name: str
    seed: int
    checkpoints: list[Checkpoint]
    loss_log: list[float]
    similarities: list[float | None]
    events: list[LeapEvent]
    theta_final: np.ndarray
    adam_final: AdamState
    skipped_steps: int = 0

    @property
    def labels(self) -> list[RegimeLabel]:
        return [c.regime for c in self.checkpoints]


def eligible(predictor: str, window_size: int) -> bool:
    return window_size >= HISTORY_REQUIRED[predictor]


def speculate(
    ckpts: Sequence[Checkpoint],
    delta: int,
    predictor: str,
    k: int,
    task: Task,
    hyper: AdamHyper,
    momentum_variant: str = "paper",
) -> tuple[Prediction, float]:
    """Predict K steps ahead of the newest checkpoint and score it held-out.

    `ckpts` is the history window, oldest first, newest = the speculation
    origin. Returns the prediction and its validation loss; training state is
    untouched. Raises InsufficientHistoryError when the window is too short
    for the predictor.
    """
    if predictor not in PREDICTORS:
        raise ValueError(f"unknown predictor {predictor!r}")
    if momentum_variant not in MOMENTUM_VARIANTS:
        raise ValueError(f"unknown momentum variant {momentum_variant!r}")
    if len(ckpts) < HISTORY_REQUIRED[predictor]:
        raise InsufficientHistoryError(
            f"{predictor} needs {HISTORY_REQUIRED[predictor]} checkpoints, have {len(ckpts)}"
        )
    curr = ckpts[-1]
    if predictor == MOMENTUM:
        if momentum_variant == "paper":
            pred = predict_momentum(curr.theta, curr.m, curr.v, k, hyper.eps)
        else:
            state = AdamState(m=curr.m, v=curr.v, step=curr.step, hyper=hyper)
            pred = predict_momentum_descent(curr.theta, state, k)
    elif predictor == LINEAR:
        pred = predict_linear(curr.theta, ckpts[-2].theta, delta, k)
    elif predictor == QUADRATIC:
        pred = predict_quadratic(curr.theta, ckpts[-2].theta, ckpts[-3].theta, delta, k)
    else:
        pred = predict_quadratic_exact(curr.theta, ckpts[-2].theta, ckpts[-3].theta, delta, k)
    l_hat = task.validation_loss(pred.theta_hat) if pred.finite else float("nan")
    return pred, l_hat


def leap_or_continue(
    window: HistoryWindow,
    loss_log: Sequence[float],
    task: Task,
    hyper: AdamHyper,
    settings: SpeculationSettings,
    *,
    epsilon: float,
    adaptive_window: int,
    momentum_variant: str = "paper",
) -> tuple[LeapEvent | None, Prediction | None]:
    """One speculation attempt at the current checkpoint.

    Returns (event, prediction); both None when gating or history makes the
    checkpoint ineligible. event.applied says whether the caller should
    fast-forward to prediction.theta_hat.
    """
    curr = window.current
    if settings.regime_gating and curr.regime in (RegimeLabel.CHAOTIC, RegimeLabel.UNKNOWN):
        return None, None
    if not eligible(settings.predictor, window.size):
        return None, None

    pred, l_hat = speculate(window.checkpoints, window.delta, settings.predictor,
                            settings.k, task, hyper, momentum_variant)
    try:
        sigma = recent_loss_std(loss_log, adaptive_window)
    except InsufficientHistoryError:
        sigma = None
    decision = decide(l_hat, curr.val_loss, sigma, epsilon)
    accepted = decision.verdict(settings.criterion) is True
    event = LeapEvent(
        step_from=curr.step,
        k=settings.k,
        predictor=settings.predictor,
        decision=decision,
        applied=accepted and settings.apply,
        criterion_used=settings.criterion,
        regime_at_leap=curr.regime,
        displacement_norm=pred.displacement_norm,
    )
    return event, pred


def train_run(
    task: Task,
    seed: int,
    *,
    total_steps: int,
    delta: int,
    hyper: AdamHyper,
    thresholds: Thresholds | None = None,
    epsilon: float = 0.05,
    adaptive_window: int = 5,
    momentum_variant: str = "paper",
    ff_policy: str = "carry",
    speculation: SpeculationSettings | None = None,
    store_dir: str | Path | None = None,
) -> RunResult:
    """Train with checkpointing every delta steps; optionally speculate live.

    Without thresholds every checkpoint is labeled `unknown` (calibration
    runs). With `speculation` set, each eligible checkpoint attempts one
    leap; accepted leaps fast-forward the run under `ff_policy`. Checkpoints
    are persisted to store_dir when given, and leap events are streamed to
    events.jsonl alongside them.

    The run owns one writable parameter buffer and its optimizer state's
    moment buffers, and every step updates them in place. Nothing outside
    the run sees them while it trains: a checkpoint stores frozen copies of
    the parameters and moments, and a landing leap copies the predicted
    parameters into the buffer.
    """
    if ff_policy not in FF_POLICIES:
        raise ValueError(f"unknown fast-forward policy {ff_policy!r}")
    if total_steps < 1 or delta < 1:
        raise ValueError("total_steps and delta must be >= 1")

    store_path = Path(store_dir) if store_dir is not None else None
    if store_path is not None:
        store_path.mkdir(parents=True, exist_ok=True)
    events_file = store_path / "events.jsonl" if store_path is not None else None

    theta = task.init_params(seed).copy()
    state = init_state(task.param_dim, hyper)
    window = HistoryWindow(delta)
    ckpts: list[Checkpoint] = []
    loss_log: list[float] = []
    sims: list[float | None] = []
    events: list[LeapEvent] = []
    skipped = 0

    step = 0
    next_ckpt = delta
    while step < total_steps:
        batch = task.batch(seed, step)
        tg = task.loss_and_grad(theta, batch)
        apply_update(state, theta, tg.grad, out=theta)
        step += 1
        if step != next_ckpt:
            continue

        if not is_finite(theta):
            raise RunDivergedError(f"non-finite parameters at step {step} (seed {seed})")
        val_loss = task.validation_loss(theta)
        if not math.isfinite(val_loss):
            raise RunDivergedError(f"non-finite validation loss at step {step} (seed {seed})")
        fingerprint = task.fingerprint(theta)
        if ckpts:
            sim = similarity_at(fingerprint, ckpts[-1].fingerprint)
            label = classify(sim, thresholds) if thresholds is not None else RegimeLabel.UNKNOWN
        else:
            sim, label = None, RegimeLabel.UNKNOWN
        m, v = snapshot_moments(state)
        ckpt = Checkpoint(step=step, theta=freeze(theta.copy()), m=m, v=v, val_loss=val_loss,
                          fingerprint=fingerprint, regime=label, seed=seed)
        record_checkpoint(window, ckpt, store_path)
        ckpts.append(ckpt)
        loss_log.append(val_loss)
        sims.append(sim)

        if speculation is not None and step + speculation.k <= total_steps:
            event, pred = leap_or_continue(
                window, loss_log, task, hyper, speculation,
                epsilon=epsilon, adaptive_window=adaptive_window,
                momentum_variant=momentum_variant,
            )
            if event is not None:
                events.append(event)
                if events_file is not None:
                    with events_file.open("a") as fh:
                        fh.write(json.dumps(event.to_json()) + "\n")
                if event.applied:
                    assert pred is not None
                    np.copyto(theta, pred.theta_hat)
                    fast_forward(state, speculation.k, ff_policy)
                    step += speculation.k
                    skipped += speculation.k
                    window.clear()
        next_ckpt = (step // delta + 1) * delta

    return RunResult(
        task_name=task.name,
        seed=seed,
        checkpoints=ckpts,
        loss_log=loss_log,
        similarities=sims,
        events=events,
        theta_final=freeze(theta),
        adam_final=state,
        skipped_steps=skipped,
    )


def _cascade_step(predictor: str, chain: list[np.ndarray], k: int,
                  start: Checkpoint, hyper: AdamHyper,
                  momentum_variant: str) -> Prediction:
    """Stage >= 2 prediction from the synthetic chain of predicted states.

    The chain holds [theta_start, stage-1 prediction, ...] at uniform spacing
    K, so finite-difference predictors run with delta = K on it. Momentum
    stages reuse the start checkpoint's moment snapshot. Quadratic falls back
    to the linear form while the chain is too short for a second difference.
    """
    if predictor == MOMENTUM:
        if momentum_variant == "paper":
            return predict_momentum(chain[-1], start.m, start.v, k, hyper.eps)
        state = AdamState(m=start.m, v=start.v, step=start.step, hyper=hyper)
        return predict_momentum_descent(chain[-1], state, k)
    if predictor == LINEAR or len(chain) < 3:
        pred = predict_linear(chain[-1], chain[-2], k, k)
        if predictor == LINEAR:
            return pred
        return Prediction(predictor=predictor, k=k, theta_hat=pred.theta_hat,
                          displacement_norm=pred.displacement_norm, finite=pred.finite)
    fn = predict_quadratic if predictor == QUADRATIC else predict_quadratic_exact
    return fn(chain[-1], chain[-2], chain[-3], k, k)


def run_cascade(
    start_window: Sequence[Checkpoint],
    cfg: CascadeConfig,
    predictor: str,
    criterion: str,
    task: Task,
    hyper: AdamHyper,
    *,
    sigma_l: float | None,
    epsilon: float,
    momentum_variant: str = "paper",
) -> list[LeapEvent]:
    """Chain up to `cfg.depth` predictions of horizon K from a stable checkpoint.

    Stage 1 extrapolates from the real history window; each later stage starts
    from the previous stage's predicted weights and is verified against the
    previous stage's predicted loss. Stages stop at the first rejection under
    `criterion`; the returned events cover every evaluated stage, so the
    accepted depth is len(events) minus the trailing rejection if any.
    """
    start = start_window[-1]
    if start.regime != RegimeLabel.STABLE:
        raise IneligibleError(f"cascades start from stable checkpoints, got {start.regime.value}")
    if len(start_window) < HISTORY_REQUIRED[predictor]:
        raise InsufficientHistoryError(
            f"{predictor} needs {HISTORY_REQUIRED[predictor]} checkpoints at the cascade start"
        )
    delta = start_window[1].step - start_window[0].step if len(start_window) > 1 else cfg.k

    events: list[LeapEvent] = []
    chain: list[np.ndarray] = [start.theta]
    baseline = start.val_loss
    for stage in range(1, cfg.depth + 1):
        if stage == 1:
            pred, l_hat = speculate(start_window, delta, predictor, cfg.k,
                                    task, hyper, momentum_variant)
        else:
            pred = _cascade_step(predictor, chain, cfg.k, start, hyper, momentum_variant)
            l_hat = task.validation_loss(pred.theta_hat) if pred.finite else float("nan")
        if not (math.isfinite(baseline) and baseline > 0):
            break  # previous stage's loss cannot anchor a verification
        decision = decide(l_hat, baseline, sigma_l, epsilon)
        events.append(LeapEvent(
            step_from=start.step + (stage - 1) * cfg.k,
            k=cfg.k,
            predictor=predictor,
            decision=decision,
            applied=False,
            criterion_used=criterion,
            regime_at_leap=start.regime,
            displacement_norm=pred.displacement_norm,
            stage=stage,
        ))
        if decision.verdict(criterion) is not True:
            break
        chain.append(pred.theta_hat)
        baseline = l_hat
    return events


def accepted_depth(events: Sequence[LeapEvent], criterion: str) -> int:
    """Consecutive accepted stages from stage 1 under `criterion`."""
    depth = 0
    for ev in events:
        if ev.decision.verdict(criterion) is True:
            depth += 1
        else:
            break
    return depth
