"""The leap loop: speculate at checkpoints, verify, fast-forward on accept.

Speculation is free of side effects by construction: minibatches are a pure
function of (seed, step), predictors are pure, and verification only reads
the fixed held-out set. A rejected prediction therefore leaves the training
trajectory bit-identical to a run that never speculated, which is the
contract the force-reject mode exists to demonstrate.

On an accepted leap the parameters jump to the predicted vector, the global
step advances by K and the optimizer clock fast-forwards under the
configured policy. The run keeps in memory only its history window, the
last trajectory.WINDOW_CAPACITY checkpoints, and empties it on a leap, so
the finite-difference history restarts at the next trained checkpoint:
predicted states must never masquerade as observed checkpoint deltas. The
next checkpoint lands on the next multiple of delta strictly after the
landing step. Live attempts and offline cascades share one stage walker,
run_cascade: it walks from a stage-1 prediction and loss its caller already
holds, and its stage n scores theta_t plus n times stage 1's displacement
against stage n-1's loss. A live attempt is a depth-1 walk from
speculate()'s exact prediction, and leap_or_continue only marks its event
applied; an offline cascade walks deeper and applies nothing.

A training run that has a CPU to spare has a producer process pinned to
that CPU (batches_drawn_ahead), which draws its batch blocks ahead of it and
writes its checkpoint files behind it. Since batches are pure in (seed,
step), the run trains on the same stream bit for bit; the run encodes each
checkpoint's bytes itself, through the one encoder save_checkpoint uses, and
returns only once every file is written, so nothing it writes changes.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import NonFiniteError, freeze, is_finite
from .optim import AdamHyper, AdamState, apply_update, fast_forward, init_state, snapshot_moments
from .predict import FORMULAS, LINEAR, Prediction, predict, predict_grid, resolve_predictor
from .regime import RegimeLabel, Thresholds, classify, similarity_at
from .tasks import BATCH_BLOCK, Task
from .trajectory import (
    WINDOW_CAPACITY,
    Checkpoint,
    checkpoint_path,
    recent_loss_std,
    save_checkpoint,
)
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
    """What a run observed at each checkpoint, and its final state. Checkpoints
    are not kept: with a store_dir, trajectory.load_run_checkpoints reads them."""

    seed: int
    steps: list[int]
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
    return pred, task.validation_loss(pred.theta_hat)


def speculate_grid(
    ckpts: Sequence[Checkpoint],
    delta: int,
    formulas: Sequence[str],
    ks: Sequence[int],
    task: Task,
    hyper: AdamHyper,
) -> list[tuple[list[Prediction], list[float]]]:
    """speculate() with every formula of `formulas` at every K of `ks`, scored in one pass.

    Returns (predictions, losses) per formula. The predictions are
    speculate()'s, bit for bit. The losses come from Task.affine_losses, in
    which formulas that share a direction share its first-layer product, and
    agree with speculate()'s exact forward to rounding (at most 1.3e-15
    relative, measured over every sweep cell of default run-alls of
    mlp-reg, 5 seeds, and char-seq, 3 seeds), so this serves offline scoring
    only: a leap applies the weights it scored, through speculate(). NaN
    marks a non-finite prediction.
    """
    curr = ckpts[-1]
    grids = predict_grid(formulas, [c.theta for c in ckpts], delta, ks,
                         curr.m, curr.v, curr.step, hyper)
    finite = [np.array([p.finite for p in preds], dtype=bool) for _, _, preds in grids]
    scored = [i for i, ok in enumerate(finite) if ok.any()]
    scores = task.affine_losses(curr.theta, [(grids[i][0], grids[i][1][finite[i]])
                                             for i in scored]) if scored else []
    losses = [np.full(len(ks), np.nan) for _ in grids]
    for i, score in zip(scored, scores):
        losses[i][finite[i]] = score
    return [(preds, loss.tolist()) for (_, _, preds), loss in zip(grids, losses)]


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
    recent validation-loss std. The attempt is stage 1 of run_cascade's walk
    from speculate()'s exact prediction and loss. Returns (event, prediction),
    both None when gating or history makes the checkpoint ineligible;
    event.applied says whether the caller should fast-forward to
    prediction.theta_hat.
    """
    if settings.regime_gating and regime in (RegimeLabel.CHAOTIC, RegimeLabel.UNKNOWN):
        return None, None
    if len(window) < FORMULAS[settings.predictor].history:
        return None, None

    pred, l_hat = speculate(window, delta, settings.predictor, settings.k, task, hyper)
    events = run_cascade(window[-1], pred, 1, settings.criterion, task, l_hat=l_hat,
                         sigma_l=sigma, epsilon=epsilon, regime=regime)
    accepted = accepted_depth(events, settings.criterion) == 1
    return replace(events[0], applied=accepted and settings.apply), pred


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 off Linux, where fork may not be
    safe with the system's libraries, so nothing runs beside the process."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


@contextmanager
def batches_drawn_ahead(task: Task, seed: int, total_steps: int,
                        store_dir: Path | None = None) -> Iterator[Callable[[Checkpoint], None]]:
    """Within the block, a producer process draws the task's batch blocks of
    seed's first total_steps steps ahead of the run, and writes behind it the
    checkpoints the run saves to store_dir (workers.BlockProducer).

    Yields the function that saves a checkpoint to store_dir: a hand-off to
    the producer, else save_checkpoint. There is a producer only on Linux,
    for runs of more than two blocks, when this process may run on two CPUs
    or more and is not itself a seed worker, since the workers already fill
    the CPUs. Else, and once the producer is gone, the task draws every
    block itself and the run writes every checkpoint itself, the same
    stream and the same files bit for bit. The run's first block is drawn
    here, in the process that wants it first, and sizes the ring. When the
    block ends, however it ends, every checkpoint handed over is written
    before the producer is stopped.
    """
    producer = None
    if total_steps > 2 * BATCH_BLOCK and usable_cpus() > 1:
        from . import workers  # here, so that a run on one CPU never loads multiprocessing

        if not workers.in_worker():
            first_block, _ = task._batch_block(seed, 0)
            producer = workers.BlockProducer(task.draw_block, seed,
                                             range(BATCH_BLOCK, total_steps, BATCH_BLOCK),
                                             first_block, store_dir, task.param_dim)
    task.producer = producer
    try:
        if producer is not None and store_dir is not None:
            yield producer.save
        else:
            yield lambda ckpt: save_checkpoint(ckpt, checkpoint_path(store_dir, ckpt.step))
    finally:
        task.producer = None
        if producer is not None:
            try:
                producer.wait_saved()
            finally:
                producer.close()


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
    given, and leap events are streamed to events.jsonl alongside them; in
    memory the run keeps only its history window.

    The run owns one writable parameter buffer, one gradient buffer and its
    optimizer state's moment buffers, and every step updates them in place:
    the task writes the step's gradient into the run's buffer
    (Task.loss_and_grad's `out`), and the update applies whatever gradient
    the task returns. Nothing outside the run sees them while it trains: a
    checkpoint stores frozen copies of the parameters and moments, and a
    landing leap copies the predicted parameters into the buffer. A
    producer process (batches_drawn_ahead) may draw its batches ahead of it
    and write its checkpoint files behind it; every checkpoint is written,
    and the producer stopped, before the run returns or raises.
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
    grad = np.empty(task.param_dim)
    state = init_state(task.param_dim, hyper)
    window: deque[Checkpoint] = deque(maxlen=WINDOW_CAPACITY)  # emptied by a leap
    ckpt_steps: list[int] = []
    loss_log: list[float] = []
    sims: list[float | None] = []
    labels: list[RegimeLabel] = []
    events: list[LeapEvent] = []
    prev_fingerprint: np.ndarray | None = None
    skipped = 0

    with batches_drawn_ahead(task, seed, total_steps, store_path) as save:
        step = 0
        next_ckpt = delta
        while step < total_steps:
            try:
                tg = task.loss_and_grad(theta, task.batch(seed, step), out=grad)
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
                label = (classify(sim, thresholds) if thresholds is not None
                         else RegimeLabel.UNKNOWN)
            else:
                sim, label = None, RegimeLabel.UNKNOWN
            prev_fingerprint = fingerprint
            m, v = snapshot_moments(state)
            ckpt = Checkpoint(step=step, theta=freeze(theta.copy()), m=m, v=v, val_loss=val_loss,
                              seed=seed)
            if store_path is not None:
                save(ckpt)
            window.append(ckpt)
            ckpt_steps.append(step)
            loss_log.append(val_loss)
            sims.append(sim)
            labels.append(label)

            if speculation is not None and step + speculation.k <= total_steps:
                event, pred = leap_or_continue(
                    window, delta, task, hyper, speculation,
                    regime=label, sigma=recent_loss_std(loss_log, adaptive_window),
                    epsilon=epsilon,
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
        seed=seed,
        steps=ckpt_steps,
        loss_log=loss_log,
        similarities=sims,
        labels=labels,
        events=events,
        theta_final=freeze(theta),
        adam_final=state,
        skipped_steps=skipped,
    )


def run_cascade(
    start: Checkpoint,
    pred: Prediction,
    depth: int,
    criterion: str,
    task: Task,
    *,
    l_hat: float,
    sigma_l: float | None,
    epsilon: float,
    regime: RegimeLabel,
) -> list[LeapEvent]:
    """Score up to `depth` leaps along the stage-1 leap `pred` from the checkpoint `start`.

    `pred` predicts K steps past `start` and `l_hat` is its held-out loss:
    pass 3 takes them from predict() and the sweep, and a live attempt, a
    depth-1 walk, from speculate(). Stage n scores theta_t +
    n * (stage 1's displacement) with validation_loss against stage n-1's
    loss, as any formula re-run on the chain of predictions at spacing K
    would, so a quadratic cascade's curvature enters only in stage 1. Stages
    stop at the first rejection under `criterion`. Events carry pred's
    formula, K and displacement norm, and the label `regime`; none is applied.
    """
    if depth < 1:
        raise ValueError("cascade depth must be >= 1")
    theta, baseline = pred.theta_hat, start.val_loss
    events: list[LeapEvent] = []
    for stage in range(1, depth + 1):
        if stage == 2:  # only a cascade that scores stage 2 reads the parameters
            leap = pred.theta_hat - start.theta
        if stage > 1:
            theta = theta + leap
            l_hat = task.validation_loss(theta)
        decision = decide(l_hat, baseline, sigma_l, epsilon)
        events.append(LeapEvent(
            step_from=start.step + (stage - 1) * pred.k,
            k=pred.k,
            predictor=pred.predictor,
            decision=decision,
            applied=False,
            criterion_used=criterion,
            regime_at_leap=regime,
            displacement_norm=pred.displacement_norm,
            stage=stage,
        ))
        if decision.verdict(criterion) is not True or not l_hat > 0:
            break  # a zero loss cannot anchor the next stage's verification
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
