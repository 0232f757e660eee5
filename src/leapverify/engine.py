"""The leap loop: speculate at checkpoints, verify, fast-forward on accept.

Speculation is free of side effects by construction: minibatches are a pure
function of (seed, step), predictors are pure, and verification only reads
the fixed held-out set. A rejected prediction therefore leaves the training
trajectory bit-identical to a run that never speculated, which is the
contract the force-reject mode exists to demonstrate.

On an accepted leap the parameters jump to the predicted vector, the global
step advances by K and the optimizer clock fast-forwards under the
configured policy. The run then marks its next checkpoint as `since_leap`,
where the finite-difference history (trajectory.history_at) restarts:
predicted states must never masquerade as observed checkpoint deltas. The
next checkpoint lands on the next multiple of delta strictly after the
landing step.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import NonFiniteError, freeze, is_finite
from .optim import AdamHyper, AdamState, apply_update, fast_forward, init_state, snapshot_moments
from .predict import FORMULAS, LINEAR, Prediction, predict, predict_grid, resolve_predictor
from .regime import RegimeLabel, Thresholds, classify, similarity_at
from .tasks import Task
from .trajectory import Checkpoint, history_at, recent_loss_std, save_checkpoint
from .verify import Decision, decide

FF_POLICIES = ("carry", "decay")


class RunDivergedError(RuntimeError):
    """Training reached a non-finite state and was aborted."""


@dataclass(frozen=True)
class SpeculationSettings:
    """How the live loop speculates at each eligible checkpoint."""

    predictor: str = LINEAR     # formula name (see predict.FORMULAS)
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
    seed: int
    checkpoints: list[Checkpoint]
    loss_log: list[float]
    similarities: list[float | None]
    labels: list[RegimeLabel]
    events: list[LeapEvent]
    theta_final: np.ndarray
    adam_final: AdamState
    skipped_steps: int = 0


def speculate(
    ckpts: Sequence[Checkpoint],
    delta: int,
    predictor: str,
    k: int,
    task: Task,
    hyper: AdamHyper,
) -> tuple[Prediction, float]:
    """Predict K steps ahead of the newest checkpoint and score it held-out.

    `ckpts` is the history window, oldest first, newest = the speculation
    origin; `predictor` is a formula name. Returns the prediction and its
    validation loss; training state is untouched. Raises
    InsufficientHistoryError when the window is too short for the formula.
    """
    curr = ckpts[-1]
    pred = predict(predictor, [c.theta for c in ckpts], delta, k,
                   curr.m, curr.v, curr.step, hyper)
    return pred, _held_out_loss(pred, task)


def _held_out_loss(pred: Prediction, task: Task) -> float:
    return task.validation_loss(pred.theta_hat) if pred.finite else float("nan")


def speculate_grid(
    ckpts: Sequence[Checkpoint],
    delta: int,
    predictor: str,
    ks: Sequence[int],
    task: Task,
    hyper: AdamHyper,
) -> tuple[list[Prediction], list[float]]:
    """speculate() at every K of `ks`, scoring all of them in one held-out pass.

    The predictions are speculate()'s, bit for bit. The losses come from
    Task.affine_losses and agree with speculate()'s exact forward to about
    1e-12 relative, so this serves offline scoring only: a leap applies the
    weights it scored, through speculate(). NaN marks a non-finite prediction.
    """
    curr = ckpts[-1]
    directions, coeffs, preds = predict_grid(predictor, [c.theta for c in ckpts], delta, ks,
                                             curr.m, curr.v, curr.step, hyper)
    finite = np.array([p.finite for p in preds], dtype=bool)
    losses = np.full(len(preds), np.nan)
    if finite.any():
        losses[finite] = task.affine_losses(curr.theta, directions, coeffs[finite])
    return preds, losses.tolist()


def leap_or_continue(
    window: Sequence[Checkpoint],
    delta: int,
    task: Task,
    hyper: AdamHyper,
    settings: SpeculationSettings,
    *,
    regime: RegimeLabel,
    sigma: float | None,
    epsilon: float,
) -> tuple[LeapEvent | None, Prediction | None]:
    """One speculation attempt at the newest checkpoint of `window`, labelled `regime`.

    `window` is the history at spacing `delta`, oldest first, and `sigma` the
    recent validation-loss std. Returns (event, prediction), both None when
    gating or history makes the checkpoint ineligible; event.applied says
    whether the caller should fast-forward to prediction.theta_hat.
    """
    if settings.regime_gating and regime in (RegimeLabel.CHAOTIC, RegimeLabel.UNKNOWN):
        return None, None
    if len(window) < FORMULAS[settings.predictor].history:
        return None, None

    curr = window[-1]
    pred, l_hat = speculate(window, delta, settings.predictor, settings.k, task, hyper)
    decision = decide(l_hat, curr.val_loss, sigma, epsilon)
    accepted = decision.verdict(settings.criterion) is True
    event = LeapEvent(
        step_from=curr.step,
        k=settings.k,
        predictor=settings.predictor,
        decision=decision,
        applied=accepted and settings.apply,
        criterion_used=settings.criterion,
        regime_at_leap=regime,
        displacement_norm=pred.displacement_norm,
    )
    return event, pred


# A diverging run stops with RunDivergedError naming its step; numpy's
# overflow and invalid-value warnings on the way there would only add noise.
@np.errstate(over="ignore", invalid="ignore")
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
    leap; accepted leaps fast-forward the run under `ff_policy`, and
    `momentum_variant` picks the formula of a `momentum` predictor, through
    predict.resolve_predictor. Checkpoints are persisted to store_dir when
    given, and leap events are streamed to events.jsonl alongside them.

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
    if speculation is not None:
        speculation = replace(speculation, predictor=resolve_predictor(
            speculation.predictor, momentum_variant=momentum_variant))

    store_path = Path(store_dir) if store_dir is not None else None
    if store_path is not None:
        store_path.mkdir(parents=True, exist_ok=True)
    events_file = store_path / "events.jsonl" if store_path is not None else None

    theta = task.init_params(seed).copy()
    state = init_state(task.param_dim, hyper)
    ckpts: list[Checkpoint] = []
    since_leap = 0  # index of the first checkpoint after the last applied leap
    loss_log: list[float] = []
    sims: list[float | None] = []
    labels: list[RegimeLabel] = []
    events: list[LeapEvent] = []
    prev_fingerprint: np.ndarray | None = None
    skipped = 0

    step = 0
    next_ckpt = delta
    while step < total_steps:
        try:
            tg = task.loss_and_grad(theta, task.batch(seed, step))
            apply_update(state, theta, tg.grad, out=theta)
        except NonFiniteError as exc:
            raise RunDivergedError(f"{exc} at step {step + 1} (seed {seed})") from exc
        step += 1
        if step != next_ckpt:
            continue

        if not is_finite(theta):
            raise RunDivergedError(f"non-finite parameters at step {step} (seed {seed})")
        val_loss = task.validation_loss(theta)
        if not math.isfinite(val_loss):
            raise RunDivergedError(f"non-finite validation loss at step {step} (seed {seed})")
        fingerprint = task.fingerprint(theta)
        if prev_fingerprint is not None:
            sim = similarity_at(fingerprint, prev_fingerprint)
            label = classify(sim, thresholds) if thresholds is not None else RegimeLabel.UNKNOWN
        else:
            sim, label = None, RegimeLabel.UNKNOWN
        prev_fingerprint = fingerprint
        m, v = snapshot_moments(state)
        ckpt = Checkpoint(step=step, theta=freeze(theta.copy()), m=m, v=v, val_loss=val_loss,
                          seed=seed)
        if store_path is not None:
            save_checkpoint(ckpt, store_path / f"ckpt_{step}.lpv")
        ckpts.append(ckpt)
        loss_log.append(val_loss)
        sims.append(sim)
        labels.append(label)

        if speculation is not None and step + speculation.k <= total_steps:
            event, pred = leap_or_continue(
                history_at(ckpts, len(ckpts) - 1, since_leap), delta, task, hyper, speculation,
                regime=label, sigma=recent_loss_std(loss_log, adaptive_window), epsilon=epsilon,
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
                    since_leap = len(ckpts)
        next_ckpt = (step // delta + 1) * delta

    return RunResult(
        seed=seed,
        checkpoints=ckpts,
        loss_log=loss_log,
        similarities=sims,
        labels=labels,
        events=events,
        theta_final=freeze(theta),
        adam_final=state,
        skipped_steps=skipped,
    )


def run_cascade(
    start_window: Sequence[Checkpoint],
    delta: int,
    cfg: CascadeConfig,
    predictor: str,
    criterion: str,
    task: Task,
    hyper: AdamHyper,
    *,
    sigma_l: float | None,
    epsilon: float,
) -> list[LeapEvent]:
    """Chain up to `cfg.depth` predictions of horizon K from a stable checkpoint.

    Stage 1 extrapolates from the real history window, whose checkpoints are
    `delta` steps apart; each later stage starts from the previous stage's
    predicted weights and is verified against the previous stage's predicted
    loss. Later stages run the formula on the chain
    [theta_start, stage-1 prediction, ...] at spacing K with the start
    checkpoint's moments, in the linear form while the chain is too short for
    the formula. Stages stop at the first rejection under `criterion`; the
    returned events cover every evaluated stage, so the accepted depth is
    len(events) minus the trailing rejection if any. The start is the newest
    checkpoint of `start_window`; callers start only from stable checkpoints,
    so the events are labelled stable.
    """
    start = start_window[-1]

    events: list[LeapEvent] = []
    chain: list[np.ndarray] = [start.theta]
    baseline = start.val_loss
    for stage in range(1, cfg.depth + 1):
        if stage == 1:
            pred, l_hat = speculate(start_window, delta, predictor, cfg.k, task, hyper)
        else:
            formula = predictor if len(chain) >= FORMULAS[predictor].history else LINEAR
            pred = predict(formula, chain, cfg.k, cfg.k, start.m, start.v, start.step, hyper)
            l_hat = _held_out_loss(pred, task)
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
            regime_at_leap=RegimeLabel.STABLE,
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
