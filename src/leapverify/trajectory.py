"""Checkpoint capture, the checkpoint-history rule, and a run's files.

A checkpoint freezes the training state speculation needs at one trajectory
point: parameters, raw optimizer moments, held-out validation loss and the
run seed. What was observed there (the fingerprint similarity and the regime
label) is recorded in the run's loss_log.csv, not in the checkpoint.

The finite-difference predictors read a short history: `history_at` gives a
checkpoint and at most two predecessors. A live run and replay hold that
window in memory, not the whole run. A live run empties its window on an
applied leap, because a predicted point is not a trained one. Checkpoints
land on multiples of delta, so every window is evenly spaced;
`checkpoint_spacing` checks that of a stored run.

On-disk format (little-endian), 24 + 24 * param_count + 16 bytes:

    magic "LPVF" | u32 version | u64 step | u64 param_count
    | f64 theta[param_count] | f64 m[param_count] | f64 v[param_count]
    | f64 val_loss | u64 seed

Round-trips are bit-exact for every float payload. encode_checkpoint is the
one writer of these bytes, into the slot of a run's engine.Handover, and
finish_checkpoint the one path from them to a file, taken by the run's
batch producer behind the run (workers.BlockProducer), else in the run. A
plain run's checkpoint comes encoded with a NaN loss: finish_checkpoint
measures the parameters in place, packs the loss in and returns it with the
fingerprint. Only a checkpoint with a finite loss is written. write_atomic
writes every file of a run through its `.tmp` name, so none is ever
partial. The run writes loss_log.csv last, so read_loss_log refuses a run
dir without it as unfinished.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import freeze
from .regime import RegimeLabel

if TYPE_CHECKING:
    from .engine import Measure, RunResult

MAGIC = b"LPVF"
FORMAT_VERSION = 2
WINDOW_CAPACITY = 3
LOSS_LOG = "loss_log.csv"


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


def history_at(ckpts: Sequence[Checkpoint], i: int) -> Sequence[Checkpoint]:
    """ckpts[i] and at most WINDOW_CAPACITY - 1 predecessors.

    Its length sets which predictors can run: 1 momentum, 2 + linear, 3 + quadratic."""
    return ckpts[max(0, i + 1 - WINDOW_CAPACITY): i + 1]


def checkpoint_spacing(steps: Sequence[int]) -> int:
    """The one spacing of consecutive checkpoint steps; uneven spacing is refused."""
    if len(steps) < 2:
        return 1  # spacing is irrelevant below the two-checkpoint mark
    diffs = {b - a for a, b in zip(steps, steps[1:])}
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


def checkpoint_path(run_dir: str | Path, step: int) -> Path:
    """The file of a run's checkpoint at `step`."""
    return Path(run_dir) / f"ckpt_{step}.lpv"


def checkpoint_bytes(param_count: int) -> int:
    """The size of a checkpoint file of param_count parameters."""
    return 24 + 24 * param_count + 16


def encode_checkpoint(ckpt: Checkpoint, out) -> None:
    """Write ckpt's file bytes into `out`, a writable buffer of checkpoint_bytes(param_count)."""
    n = ckpt.theta.shape[0]
    if ckpt.m.shape[0] != n or ckpt.v.shape[0] != n:
        raise ValueError("moment length mismatch")
    struct.pack_into("<4sIQQ", out, 0, MAGIC, FORMAT_VERSION, ckpt.step, n)
    payload = np.ndarray((3, n), "<f8", out, 24)
    for row, arr in zip(payload, (ckpt.theta, ckpt.m, ckpt.v)):
        row[:] = arr
    struct.pack_into("<dQ", out, 24 + 24 * n, ckpt.val_loss, ckpt.seed)


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write data, text or any bytes-like buffer, to path through path.tmp,
    so that path is never partial."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w" if isinstance(data, str) else "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def finish_checkpoint(data, step: int, store_dir: Path | None,
                      measure: Measure | None) -> tuple[float, np.ndarray | None] | None:
    """Finish a run's checkpoint at `step`, encoded in the writable buffer `data`.

    With a `measure` (engine.Measure) its parameters are measured where
    they lie in `data` and the held-out loss is packed in. The file goes to
    store_dir, if any, unless that loss is not finite: a diverged run stores
    no checkpoint of its own. Returns what `measure` returned, the held-out
    loss and the fingerprint (None where the loss is not finite), else None.
    """
    measured = None
    if measure is not None:
        param_count = (len(data) - checkpoint_bytes(0)) // 24
        measured = measure(np.ndarray(param_count, "<f8", data, 24))
        struct.pack_into("<d", data, len(data) - 16, measured[0])
    if store_dir is not None and math.isfinite(struct.unpack_from("<d", data, len(data) - 16)[0]):
        write_atomic(checkpoint_path(store_dir, step), data)
    return measured


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    if not math.isfinite(ckpt.val_loss):
        # persisted checkpoints come from real training states only
        raise ValueError("refusing to persist a checkpoint with non-finite val_loss")
    data = bytearray(checkpoint_bytes(ckpt.theta.shape[0]))
    encode_checkpoint(ckpt, data)
    write_atomic(path, data)


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

        if os.fstat(fh.fileno()).st_size != checkpoint_bytes(n):
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
    return [load_checkpoint(checkpoint_path(run_dir, step)) for step in steps]


def write_loss_log(result: RunResult, run_dir: str | Path) -> None:
    """Write the run's loss_log.csv, the record of each checkpoint's label."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "val_loss", "similarity", "regime"])
    for step, val_loss, sim, label in zip(result.steps, result.loss_log, result.similarities,
                                          result.labels):
        writer.writerow([step, repr(val_loss),
                         "" if sim is None else repr(sim), label.value])
    write_atomic(Path(run_dir) / LOSS_LOG, buf.getvalue())


def read_loss_log(run_dir: str | Path) -> dict[int, tuple[float, RegimeLabel]]:
    """Each checkpoint's held-out loss and regime label by step, from the run's loss_log.csv.

    A run dir without loss_log.csv, or whose log lists other steps than its
    checkpoint files, holds an unfinished or mixed run and is refused.
    """
    path = Path(run_dir) / LOSS_LOG
    if not path.exists():
        raise FileNotFoundError(f"{path} missing; pass 1 (train) did not finish this run")
    with open(path, newline="") as fh:
        log = {int(row["step"]): (float(row["val_loss"]), RegimeLabel(row["regime"]))
               for row in csv.DictReader(fh)}
    mismatch = set(log).symmetric_difference(checkpoint_steps(run_dir))
    if mismatch:
        raise ValueError(f"{path} and the checkpoint files disagree at step {min(mismatch)}")
    return log
