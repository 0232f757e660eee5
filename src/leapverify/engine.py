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

A training run hands each checkpoint over, and settles that hand-over
before its next checkpoint and once it ends: the checkpoint is then
finished (trajectory.finish_checkpoint), written and, if it came with a NaN
loss, as a plain run's does, measured (Task.measure). A run that has a CPU
to spare has a producer process pinned to that CPU (batches_drawn_ahead),
which draws its batch blocks ahead of it and finishes its checkpoints
behind it while the run trains on; else Handover finishes each one in the
run's process when it is settled. A run that may leap measures each
checkpoint itself before its next step, since an accepted leap changes what
it trains next. The run alone computes each similarity, so every output is
the same bit for bit whichever process measured. The run writes
events.jsonl and loss_log.csv last, once every checkpoint is settled, so no
event or label outlives a checkpoint file left unwritten.
"""

from __future__ import annotations

import math
import os
import sys
from collections import deque
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import NonFiniteError, freeze, is_finite
from .optim import (FF_POLICIES, AdamHyper, AdamState, apply_update, fast_forward, init_state,
                    snapshot_moments)
from .predict import FORMULAS, LINEAR, Prediction, predict, predict_grid, resolve_predictor
from .regime import RegimeLabel, Thresholds, classify, similarity_at
from .tasks import BATCH_BLOCK, Task
from .trajectory import (
    EVENTS_JSONL,
    WINDOW_CAPACITY,
    Checkpoint,
    checkpoint_bytes,
    encode_checkpoint,
    finish_checkpoint,
    recent_loss_std,
    write_jsonl,
    write_loss_log,
)
from .verify import Decision, decide


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
    """A scored speculation stage; its JSON's keys are these fields, in order."""

    step_from: int
    k: int
    predictor: str
    stage: int
    applied: bool
    criterion_used: str
    regime_at_leap: RegimeLabel
    displacement_norm: float
    decision: Decision


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


class Handover:
    """A run's checkpoints finished in its own process: `save` encodes the
    checkpoint handed over into `slot`, a writable buffer of its file's size,
    and holds it until the run settles it, which finishes the slot's bytes
    (trajectory.finish_checkpoint), measured where their loss is NaN, as a
    plain run's is and a live run's never, and written to store_dir, if any.
    workers.BlockProducer finishes them in a process beside the run instead,
    and falls back on this once it is gone.
    """

    def __init__(self, slot: bytearray | np.ndarray, store_dir: Path | None, task: Task):
        self.slot, self.store_dir, self.task = slot, store_dir, task
        self.pending: Checkpoint | None = None  # handed over, not settled

    def save(self, ckpt: Checkpoint) -> None:
        """Hand ckpt over: settle the last one, then encode ckpt into the slot."""
        self.settle()
        encode_checkpoint(ckpt, self.slot)
        self.pending = ckpt

    def settle(self) -> tuple[int, float, np.ndarray | None] | None:
        """Finish the checkpoint handed over last: its step, held-out loss and
        fingerprint (Task.measure's) where it was measured then, else None."""
        ckpt, self.pending = self.pending, None
        if ckpt is None:
            return None
        measured = finish_checkpoint(self.slot, ckpt.step, self.store_dir, self.task)
        return None if measured is None else (ckpt.step, *measured)


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 off Linux, where fork may not be
    safe with the system's libraries, so nothing runs beside the process."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


@contextmanager
def batches_drawn_ahead(task: Task, seed: int, total_steps: int,
                        store_dir: Path | None = None) -> Iterator[Handover]:
    """Within the block, a producer process draws the task's batch blocks of
    seed's first total_steps steps ahead of the run, and finishes behind it
    the checkpoints the run hands over, measured where their loss is NaN
    and written to store_dir, if any (workers.BlockProducer).

    Yields what the run hands its checkpoints over to: the producer, else a
    Handover, which finishes each one in this process. There is a producer
    only on Linux, for runs of more than two blocks, when this process may
    run on two CPUs or more and is not itself a seed worker, since the
    workers already fill the CPUs. Else, and once the producer is gone, the
    task draws every block itself and the run finishes every checkpoint
    itself: the same stream, measurements and files bit for bit. When the
    block ends, however it ends, the checkpoint handed over last is
    settled, and only then is the producer stopped.
    """
    producer = None
    if total_steps > 2 * BATCH_BLOCK and usable_cpus() > 1:
        from . import workers  # here, so that a run on one CPU never loads multiprocessing

        if not workers.in_worker():
            producer = workers.BlockProducer(task, seed, total_steps, store_dir)
    task.producer = producer
    checkpoints = producer if producer is not None else Handover(
        bytearray(checkpoint_bytes(task.param_dim)), store_dir, task)
    try:
        yield checkpoints
    finally:
        task.producer = None
        try:
            checkpoints.settle()
        finally:
            if producer is not None:
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
    given, and once every one is settled the run writes events.jsonl, if it
    made an attempt, and loss_log.csv there last, so a run that fails
    leaves neither. In memory a live run keeps only its history window, and
    a plain run only the checkpoint it handed over last.

    The run owns one writable parameter buffer, one gradient buffer and its
    optimizer state's moment buffers, and every step updates them in place:
    the task writes the step's gradient into the run's buffer
    (Task.loss_and_grad's `out`), and the update applies whatever gradient
    the task returns. Nothing outside the run sees them while it trains: a
    checkpoint stores frozen copies of the parameters and moments, and a
    landing leap copies the predicted parameters into the buffer.

    A producer process (batches_drawn_ahead) may draw its batches ahead of it
    and finish its checkpoints behind it while it trains on; else Handover
    finishes each one when the run settles it. A plain run's checkpoint,
    handed over with a NaN loss, is measured as it is finished, and the run
    settles each hand-over, recording the checkpoint's loss, similarity and
    label, before its next checkpoint, before it returns, and before it
    raises, so that a checkpoint's non-finite held-out loss still stops the
    run at that checkpoint. A live run measures each checkpoint and makes its
    attempt itself, since a leap must land before the next step, and hands
    over only finite losses. The run computes each similarity itself. The
    producer is stopped before the run returns or raises.
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

    theta = task.init_params(seed).copy()
    grad = np.empty(task.param_dim)
    state = init_state(task.param_dim, hyper)
    window: deque[Checkpoint] = deque(maxlen=WINDOW_CAPACITY)  # emptied by a leap
    ckpt_steps: list[int] = []
    loss_log: list[float] = []
    sims: list[float | None] = []
    labels: list[RegimeLabel] = []
    events: list[LeapEvent] = []
    last_fingerprint: np.ndarray | None = None  # of the last checkpoint recorded
    skipped = 0

    def record(step: int, val_loss: float, fingerprint: np.ndarray | None) -> RegimeLabel:
        """Add checkpoint `step`'s measurements to the run's, with its
        fingerprint's similarity to the last one's; its regime label."""
        nonlocal last_fingerprint
        if not math.isfinite(val_loss):
            raise RunDivergedError(f"non-finite validation loss at step {step} (seed {seed})")
        sim = None if last_fingerprint is None else similarity_at(fingerprint, last_fingerprint)
        last_fingerprint = fingerprint
        label = (classify(sim, thresholds) if sim is not None and thresholds is not None
                 else RegimeLabel.UNKNOWN)
        ckpt_steps.append(step)
        loss_log.append(val_loss)
        sims.append(sim)
        labels.append(label)
        return label

    with batches_drawn_ahead(task, seed, total_steps, store_path) as checkpoints:

        def settle() -> None:
            """Settle the last hand-over; record it if it was measured then,
            raising if it diverged."""
            measured = checkpoints.settle()
            if measured is not None:
                record(*measured)

        step = 0
        next_ckpt = delta
        while step < total_steps:
            try:
                tg = task.loss_and_grad(theta, task.batch(seed, step), out=grad)
                apply_update(state, theta, tg.grad, out=theta)
            except NonFiniteError as exc:
                settle()  # an earlier checkpoint may have diverged first
                raise RunDivergedError(f"{exc} at step {step + 1} (seed {seed})") from exc
            step += 1
            if step != next_ckpt:
                continue

            settle()
            if not is_finite(theta):
                raise RunDivergedError(f"non-finite parameters at step {step} (seed {seed})")
            m, v = snapshot_moments(state)
            ckpt = Checkpoint(step=step, theta=freeze(theta.copy()), m=m, v=v,
                              val_loss=math.nan, seed=seed)
            # measured behind, a plain run trains on (char-seq, 2000 steps: 0.741 s, inline
            # 0.821 s); a live run must not wait for a reply to leap (0.819 s, inline 0.702 s)
            if speculation is None:
                checkpoints.save(ckpt)  # its NaN loss: measured when it is settled
                next_ckpt += delta
                continue
            val_loss, fingerprint = task.measure(ckpt.theta)
            label = record(step, val_loss, fingerprint)
            ckpt = replace(ckpt, val_loss=val_loss)
            if store_path is not None:
                checkpoints.save(ckpt)
            window.append(ckpt)

            if step + speculation.k <= total_steps:
                event, pred = leap_or_continue(
                    window, delta, task, hyper, speculation,
                    regime=label, sigma=recent_loss_std(loss_log, adaptive_window),
                    epsilon=epsilon,
                )
                if event is not None:
                    events.append(event)
                    if event.applied:
                        assert pred is not None
                        np.copyto(theta, pred.theta_hat)
                        fast_forward(state, speculation.k, ff_policy)
                        step += speculation.k
                        skipped += speculation.k
                        window.clear()
            next_ckpt = (step // delta + 1) * delta
        settle()

    result = RunResult(seed=seed, steps=ckpt_steps, loss_log=loss_log, similarities=sims,
                       labels=labels, events=events, theta_final=freeze(theta),
                       adam_final=state, skipped_steps=skipped)
    if store_path is not None:
        if events:
            write_jsonl(store_path / EVENTS_JSONL, events)
        write_loss_log(result, store_path)
    return result


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
            step_from=start.step + (stage - 1) * pred.k, k=pred.k, predictor=pred.predictor,
            stage=stage, applied=False, criterion_used=criterion, regime_at_leap=regime,
            displacement_norm=pred.displacement_norm, decision=decision))
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
