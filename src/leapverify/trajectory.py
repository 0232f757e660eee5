"""Checkpoint capture, rolling history window, and binary persistence.

A checkpoint freezes the training state speculation needs at one trajectory
point: parameters, raw optimizer moments, held-out validation loss and the
run seed. What was observed there (the fingerprint similarity and the regime
label) is recorded in the run's loss_log.csv, not in the checkpoint. The
history window keeps the most recent <= 3 checkpoints at exact spacing
delta -- the finite-difference predictors read their deltas from it, so the
spacing invariant is enforced on every push.

On-disk format (little-endian), 24 + 24 * param_count + 16 bytes:

    magic "LPVF" | u32 version | u64 step | u64 param_count
    | f64 theta[param_count] | f64 m[param_count] | f64 v[param_count]
    | f64 val_loss | u64 seed

Round-trips are bit-exact for every float payload.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import freeze

MAGIC = b"LPVF"
FORMAT_VERSION = 2
WINDOW_CAPACITY = 3


class CheckpointFormatError(ValueError):
    """Magic or version mismatch: not a checkpoint file we can read."""


class CheckpointCorruptionError(ValueError):
    """Recognized header but inconsistent or truncated payload."""


class InsufficientHistoryError(ValueError):
    """Too few samples for the requested statistic."""


class WindowSpacingError(ValueError):
    """Checkpoint steps in a history window must be exactly delta apart."""


@dataclass(frozen=True)
class Checkpoint:
    step: int
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    val_loss: float
    seed: int


class HistoryWindow:
    """Most recent <= 3 checkpoints at spacing delta.

    Window size determines predictor eligibility: 1 -> momentum only,
    2 -> + linear, 3 -> + quadratic. A leap invalidates finite-difference
    history, so the engine clears the window after any accepted leap.
    """

    def __init__(self, delta: int):
        if delta < 1:
            raise ValueError("delta must be >= 1")
        self.delta = delta
        self._ckpts: list[Checkpoint] = []

    def push(self, ckpt: Checkpoint) -> None:
        if self._ckpts and ckpt.step - self._ckpts[-1].step != self.delta:
            raise WindowSpacingError(
                f"step {ckpt.step} does not follow {self._ckpts[-1].step} by delta={self.delta}"
            )
        self._ckpts.append(ckpt)
        if len(self._ckpts) > WINDOW_CAPACITY:
            del self._ckpts[0]

    def clear(self) -> None:
        self._ckpts.clear()

    @property
    def size(self) -> int:
        return len(self._ckpts)

    @property
    def checkpoints(self) -> tuple[Checkpoint, ...]:
        return tuple(self._ckpts)

    @property
    def current(self) -> Checkpoint:
        return self._ckpts[-1]


def record_checkpoint(window: HistoryWindow, ckpt: Checkpoint,
                      store_dir: str | Path | None = None) -> Checkpoint:
    """Append a checkpoint to the window (trimming to 3) and persist it."""
    if ckpt.step % window.delta != 0:
        raise ValueError(f"checkpoint step {ckpt.step} not a multiple of delta={window.delta}")
    window.push(ckpt)
    if store_dir is not None:
        save_checkpoint(ckpt, Path(store_dir) / f"ckpt_{ckpt.step}.lpv")
    return ckpt


def recent_loss_std(losses: Sequence[float], window: int) -> float:
    """Sample std of the last `window` validation losses (clamped to history)."""
    if window < 2:
        raise ValueError("window must be >= 2")
    if len(losses) < 2:
        raise InsufficientHistoryError("need >= 2 validation losses")
    tail = np.asarray(losses[-window:], dtype=np.float64)
    return float(np.std(tail, ddof=1))


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    path = Path(path)
    if not math.isfinite(ckpt.val_loss):
        # persisted checkpoints come from real training states only
        raise ValueError("refusing to persist a checkpoint with non-finite val_loss")
    n = ckpt.theta.shape[0]
    if ckpt.m.shape[0] != n or ckpt.v.shape[0] != n:
        raise ValueError("moment length mismatch")
    parts = [
        MAGIC,
        struct.pack("<IQQ", FORMAT_VERSION, ckpt.step, n),
        np.ascontiguousarray(ckpt.theta, dtype="<f8").tobytes(),
        np.ascontiguousarray(ckpt.m, dtype="<f8").tobytes(),
        np.ascontiguousarray(ckpt.v, dtype="<f8").tobytes(),
        struct.pack("<dQ", ckpt.val_loss, ckpt.seed),
    ]
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(b"".join(parts))
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> Checkpoint:
    blob = Path(path).read_bytes()
    if len(blob) < 24:
        raise CheckpointCorruptionError(f"{path}: file too short for a header")
    if blob[:4] != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {blob[:4]!r}")
    version, step, n = struct.unpack_from("<IQQ", blob, 4)
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")

    if len(blob) != 24 + 24 * n + 16:
        raise CheckpointCorruptionError(f"{path}: payload size does not match param_count={n}")
    theta, m, v = (
        freeze(np.frombuffer(blob, dtype="<f8", count=n, offset=24 + 8 * n * i).copy())
        for i in range(3)
    )
    val_loss, seed = struct.unpack_from("<dQ", blob, 24 + 24 * n)
    return Checkpoint(step=step, theta=theta, m=m, v=v, val_loss=val_loss, seed=seed)


def checkpoint_steps(run_dir: str | Path) -> list[int]:
    """Steps of the checkpoint files in a run directory, ascending, from their names."""
    return sorted(int(p.stem.split("_", 1)[1]) for p in Path(run_dir).glob("ckpt_*.lpv"))


def load_run_checkpoints(run_dir: str | Path) -> list[Checkpoint]:
    """All checkpoints in a run directory, ordered by step."""
    run_dir = Path(run_dir)
    steps = checkpoint_steps(run_dir)
    if not steps:
        raise FileNotFoundError(f"no checkpoint files under {run_dir}")
    return [load_checkpoint(run_dir / f"ckpt_{step}.lpv") for step in steps]
