"""Checkpoint capture, the checkpoint-history rule, and binary persistence.

A checkpoint freezes the training state speculation needs at one trajectory
point: parameters, raw optimizer moments, held-out validation loss and the
run seed. What was observed there (the fingerprint similarity and the regime
label) is recorded in the run's loss_log.csv, not in the checkpoint.

The finite-difference predictors read a short history: `history_at` gives a
checkpoint and at most two predecessors, none before index `since`. A live
run passes the index of its first checkpoint after the last applied leap,
because a predicted point is not a trained one. Checkpoints land on
multiples of delta, so every window is evenly spaced; `checkpoint_spacing`
checks that of a stored run.

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


class WindowSpacingError(ValueError):
    """A run's checkpoints are not evenly spaced."""


@dataclass(frozen=True)
class Checkpoint:
    step: int
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    val_loss: float
    seed: int


def history_at(ckpts: Sequence[Checkpoint], i: int, since: int = 0) -> Sequence[Checkpoint]:
    """ckpts[i] and at most WINDOW_CAPACITY - 1 predecessors, none before index `since`.

    Its length sets which predictors can run: 1 momentum, 2 + linear, 3 + quadratic."""
    return ckpts[max(since, i + 1 - WINDOW_CAPACITY): i + 1]


def checkpoint_spacing(ckpts: Sequence[Checkpoint]) -> int:
    """The one step spacing of consecutive checkpoints; uneven spacing is refused."""
    if len(ckpts) < 2:
        return 1  # spacing is irrelevant below the two-checkpoint mark
    diffs = {b.step - a.step for a, b in zip(ckpts, ckpts[1:])}
    if len(diffs) != 1:
        raise WindowSpacingError(f"uneven checkpoint spacing: {sorted(diffs)}")
    return diffs.pop()


def recent_loss_std(losses: Sequence[float], window: int) -> float | None:
    """Sample std of the last `window` validation losses (clamped to history).

    None below two losses, where no spread is defined yet.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    if len(losses) < 2:
        return None
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
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQQ", FORMAT_VERSION, ckpt.step, n))
        for arr in (ckpt.theta, ckpt.m, ckpt.v):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").data)
        fh.write(struct.pack("<dQ", ckpt.val_loss, ckpt.seed))
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> Checkpoint:
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24:
            raise CheckpointCorruptionError(f"{path}: file too short for a header")
        if header[:4] != MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic {header[:4]!r}")
        version, step, n = struct.unpack_from("<IQQ", header, 4)
        if version != FORMAT_VERSION:
            raise CheckpointFormatError(f"{path}: unsupported version {version}")

        if os.fstat(fh.fileno()).st_size != 24 + 24 * n + 16:
            raise CheckpointCorruptionError(f"{path}: payload size does not match param_count={n}")
        theta, m, v = (np.empty(n, dtype="<f8") for _ in range(3))
        for arr in (theta, m, v):
            if fh.readinto(arr) != 8 * n:
                raise CheckpointCorruptionError(f"{path}: truncated payload")
        val_loss, seed = struct.unpack("<dQ", fh.read(16))
    return Checkpoint(step=step, theta=freeze(theta), m=freeze(m), v=freeze(v),
                      val_loss=val_loss, seed=seed)


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
