"""AdamW with linear warmup + cosine decay, updated in place.

A training step's buffers have three owners. The run (engine.train_run)
owns the parameters and the gradient; the task owns the workspaces of its
forward pass, loss and backprop (Task.loss_and_grad writes the gradient into
the run's buffer); an AdamState owns the run's moment buffers and the two
scratch buffers of the update. apply_update and fast_forward write into
these rather than building new arrays, so one training step, gradient and
update, allocates no array. Anything that must outlive the step -- a
checkpoint's moments -- is copied out with snapshot_moments. Raw (not
bias-corrected) moment EMAs are exposed for the momentum weight predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import NonFiniteError, freeze, is_finite


@dataclass(frozen=True)
class AdamHyper:
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.01
    eps: float = 1e-8
    warmup_steps: int = 100
    total_steps: int = 2000

    def __post_init__(self) -> None:
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must lie in (0, 1)")
        if self.lr <= 0 or self.eps <= 0:
            raise ValueError("lr and eps must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not (0 <= self.warmup_steps <= self.total_steps):
            raise ValueError("need 0 <= warmup_steps <= total_steps")


@dataclass
class AdamState:
    """Moment EMAs and update count of one run, advanced in place.

    m and v must be writable for apply_update and fast_forward; the two
    scratch buffers hold the update's intermediates.
    """

    m: np.ndarray
    v: np.ndarray
    step: int
    hyper: AdamHyper
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def init_state(param_dim: int, hyper: AdamHyper) -> AdamState:
    return AdamState(m=np.zeros(param_dim), v=np.zeros(param_dim), step=0, hyper=hyper)


def lr_at(hyper: AdamHyper, step: int) -> float:
    """Scheduled learning rate for the update taken at `step` (0-based).

    Linear ramp to hyper.lr over warmup_steps -- the first step already uses
    lr/warmup_steps so no update is a no-op -- then cosine decay to 0 at
    total_steps.
    """
    if not (0 <= step <= hyper.total_steps):
        raise ValueError(f"step {step} outside [0, {hyper.total_steps}]")
    if step < hyper.warmup_steps:
        return hyper.lr * (step + 1) / hyper.warmup_steps
    span = hyper.total_steps - hyper.warmup_steps
    if span == 0:
        return 0.0
    phase = math.pi * (step - hyper.warmup_steps) / span
    return hyper.lr * 0.5 * (1.0 + math.cos(phase))


def apply_update(state: AdamState, theta: np.ndarray, g: np.ndarray,
                 out: np.ndarray | None = None) -> tuple[AdamState, np.ndarray]:
    """One AdamW step: advances `state` in place, returns (state, new theta).

    The new parameters are written to `out`, which may be theta itself;
    without `out` they go to a new array and theta is left as it was. Every
    input is checked before the first write, so a raised error leaves the
    moments, the step and theta unchanged. A non-finite gradient halts
    training here instead of silently poisoning the moments.

    EMA recurrences with bias correction, decoupled weight decay at the
    scheduled learning rate. The in-place passes keep the float operations
    of the straight-line formula

        m = b1*m + (1-b1)*g          v = b2*v + ((1-b2)*g)*g
        theta - lr*(m_hat / (sqrt(v_hat) + eps)) - (lr*wd)*theta

    so the result is bit-identical to evaluating it with temporaries.
    """
    m, v = state.m, state.v
    if not g.shape == m.shape == v.shape == theta.shape or (
            out is not None and out.shape != theta.shape):
        raise ValueError("theta/gradient/moment length mismatch")
    if not (m.flags.writeable and v.flags.writeable
            and (out is None or out.flags.writeable)):
        raise ValueError("moments and out must be writable")
    if not is_finite(g):
        raise NonFiniteError("non-finite gradient; training halted")
    h = state.hyper
    lr = lr_at(h, state.step)
    t = state.step + 1
    if out is None:
        out = np.empty_like(theta)

    s1, s2 = state.scratch
    m *= h.beta1
    np.multiply(g, 1.0 - h.beta1, out=s1)
    m += s1
    v *= h.beta2
    np.multiply(g, 1.0 - h.beta2, out=s1)
    s1 *= g
    v += s1
    np.divide(m, 1.0 - h.beta1**t, out=s1)
    np.divide(v, 1.0 - h.beta2**t, out=s2)
    np.sqrt(s2, out=s2)
    s2 += h.eps
    s1 /= s2
    s1 *= lr
    # the decay term reads theta before out, which may be theta, is written
    np.multiply(theta, lr * h.weight_decay, out=s2)
    np.subtract(theta, s1, out=out)
    out -= s2
    state.step = t
    return state, out


def snapshot_moments(state: AdamState) -> tuple[np.ndarray, np.ndarray]:
    """Immutable copies of the raw first/second moment EMAs."""
    return freeze(state.m.copy()), freeze(state.v.copy())


def fast_forward(state: AdamState, k: int, policy: str = "carry") -> None:
    """Advance the optimizer clock in place by k skipped steps after a leap.

    `carry` keeps the moments as they are; `decay` scales them in place by
    k rounds of the beta decay (as if k zero-gradient steps had occurred).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if policy == "decay":
        state.m *= state.hyper.beta1**k
        state.v *= state.hyper.beta2**k
    elif policy != "carry":
        raise ValueError(f"unknown fast-forward policy {policy!r}")
    state.step += k
