"""Processes forked from a command: seed workers and a run's batch producer.

Seed workers run the jobs of harness.each_seed side by side, a job being
one pass of one seed. The workers are forked from the command once, so the
passes and seeds reach them by inheritance, closures included; only job
numbers and replies are pickled. The command hands each idle worker the
first ready job in pass-major order down that worker's own duplex pipe, a
seed's pass being ready once its previous pass has succeeded, and yields
the replies in pass-major order. So a worker that finishes early moves on
to the next seed, or to a later pass of a seed that is done, instead of
waiting for the slowest seed of the pass. A worker that dies (a signal, the
OOM killer, SystemExit) closes its pipe without replying, so the job it held
fails instead of leaving the command waiting.

A batch producer (BlockProducer) works beside one training run on another
CPU, through a shared ring: it draws the run's batch blocks ahead of it, and
behind it finishes the checkpoints whose bytes the run encodes into the ring
(trajectory.finish_checkpoint), sending back the loss and fingerprint of each
one it measures: each one a plain run hands over with a NaN loss.

Every child is forked by `fork` and set up alike: it ignores Ctrl-C, which
stops the command, dies with the command, and runs OpenBLAS on one thread.
"""

from __future__ import annotations

import ctypes
import heapq
import mmap
import multiprocessing
import os
import select
import signal
import struct
import sys
import traceback
from collections.abc import Callable, Iterator, Sequence
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import freeze
from .engine import Handover
from .tasks import BATCH_BLOCK
from .trajectory import Checkpoint, checkpoint_bytes, finish_checkpoint

if TYPE_CHECKING:
    from .tasks import Task

_PR_SET_PDEATHSIG = 1  # linux/prctl.h
RING_SLOTS = 4  # blocks a producer may hold drawn ahead of its run
# what the producer sends back for a checkpoint it finished: its held-out loss,
# and whether it wrote the checkpoint's fingerprint into the ring
_MEASURED = struct.Struct("<d?")


class WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker, set as its __cause__ here."""


def in_worker() -> bool:
    """Whether this process is a child of `fork`, which runs any seeds of its own inline."""
    return multiprocessing.current_process().daemon


def fork(target: Callable, *args) -> multiprocessing.Process:
    """A daemon process forked from this one that runs target(*args) once set up."""
    sys.stdout.flush()  # else a child's exit flushes this process's buffered output again
    sys.stderr.flush()
    process = multiprocessing.get_context("fork").Process(target=_child, args=(target, *args),
                                                          daemon=True)
    process.start()
    return process


def _child(target: Callable, *args) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the command, which ends us
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)  # and a command killed by a signal too
    one_blas_thread()
    target(*args)


def results(fns: Sequence[Callable[[int], object]], seeds: Sequence[int],
            n_workers: int) -> Iterator[object]:
    """fn(seed) for each fn of fns and each seed, pass-major, run by n_workers forked processes.

    A job is one (pass, seed): job (p, i) runs fns[p](seeds[i]), and it is
    ready once job (p - 1, i) has succeeded. Each idle worker is sent the
    first ready job in pass-major order down its own pipe, so no worker waits
    for the other seeds of a pass. Results come back in pass-major order. A
    job whose fn raised, or that a dead worker held, raises when its turn
    comes, as it would inline; no job after it is started. However the
    generator ends, every worker is killed and reaped: after the last job
    they are idle, so this only stops unfinished jobs when one fails or the
    caller stops early.
    """
    context = multiprocessing.get_context("fork")
    crew: dict[Connection, multiprocessing.Process] = {}
    jobs = len(fns) * len(seeds)
    replies: dict[int, tuple[bool, object]] = {}
    ready, idle, busy = list(range(len(seeds))), [], {}
    failed = jobs  # the first job that failed; no job after it starts
    try:
        for _ in range(n_workers):
            pipe, theirs = context.Pipe()
            crew[pipe] = fork(_work, fns, seeds, theirs)
            theirs.close()  # before the next fork, so that the pipe ends when this worker does
            idle.append(pipe)
        for job in range(jobs):
            while True:
                while ready and ready[0] < failed and idle:
                    pipe = idle.pop()
                    busy[pipe] = heapq.heappop(ready)
                    pipe.send(busy[pipe])
                if job in replies:
                    break
                for pipe in wait(list(busy)):
                    held = busy.pop(pipe)
                    try:
                        ok, value = pipe.recv()
                    except EOFError:
                        crew[pipe].join()
                        ok, value = False, RuntimeError(
                            f"worker exited with code {crew[pipe].exitcode}")
                    else:
                        idle.append(pipe)
                        if not ok:
                            value, text = value
                            value.__cause__ = WorkerTraceback(text)
                    replies[held] = ok, value
                    if not ok:
                        failed = min(failed, held)
                    elif held + len(seeds) < jobs:
                        heapq.heappush(ready, held + len(seeds))
            ok, value = replies.pop(job)
            if not ok:
                raise value
            yield value
    finally:
        for pipe, process in crew.items():
            _stop(process)
            pipe.close()


def _stop(process: multiprocessing.Process) -> None:
    """Kill and reap a child of `fork`, and release its sentinel."""
    process.kill()
    process.join()
    process.close()


def _work(fns: Sequence[Callable[[int], object]], seeds: Sequence[int], pipe: Connection) -> None:
    """A worker: run each job the command sends and send back its result or exception."""
    while True:
        job = pipe.recv()
        fn, seed = fns[job // len(seeds)], seeds[job % len(seeds)]
        try:
            reply = True, fn(seed)
        except Exception as exc:
            reply = False, (exc, "".join(traceback.format_exception(exc)))
        pipe.send(reply)


class BlockProducer(Handover):
    """A process pinned to another CPU that draws one run's batch blocks ahead
    of it and finishes its checkpoints behind it.

    The run's first block, which it wants at once, is drawn here and kept on
    the task (Task._batch_block); block i of the rest of seed's total_steps
    steps is task.draw_block(seed, firsts[i]). The producer draws block i
    into slot i mod RING_SLOTS of a shared ring and then sends i down the
    ready pipe. The run sends down the want pipe the index of the block it
    wants next, which frees every slot before it: the producer draws at most
    RING_SLOTS blocks from there, and skips the blocks the run passed over.
    `take` never waits. It copies a block the producer has drawn out of the
    ring into fresh frozen arrays, so a batch the run holds never changes.
    For a block not drawn yet, any request out of order, and once the
    producer is gone, it returns None: the run draws the block itself, and
    the producer skips it.

    Handover's slot lies in the ring too, beside one for a fingerprint, and
    `save` is Handover's plus the step sent down the save pipe. The producer
    finishes a copy of the slot's bytes (trajectory.finish_checkpoint),
    copies the fingerprint into its slot and sends the held-out loss, and
    whether it wrote a fingerprint, down the saved pipe; `settle` waits for
    that and returns what Handover's does. A checkpoint the producer does
    not settle, because it died, could not be pinned or met an error,
    Handover's `settle` finishes from the bytes as the run encoded them, a
    plain run's NaN loss still in, which meets the error again and raises it.

    The producer pins itself to the lowest CPU this process may use other
    than the one it runs on, and exits at once where it cannot: woken on the
    run's CPU, it would wait for the run and slow it down.
    """

    def __init__(self, task: Task, seed: int, total_steps: int, store_dir: Path | None):
        self.seed, self.firsts = seed, range(BATCH_BLOCK, total_steps, BATCH_BLOCK)
        self._wanted, self._gone = 0, False  # _gone: the ready pipe ended, no block will come
        like, _ = task._batch_block(seed, 0)
        sizes = [array.nbytes for array in like] * RING_SLOTS
        blocks_size, fingerprint_dim = sum(sizes), task.fingerprint_dim
        ckpt_size = checkpoint_bytes(task.param_dim)
        self._ring = mmap.mmap(-1, blocks_size + 8 * fingerprint_dim + ckpt_size)
        offsets = np.cumsum([0, *sizes])
        self._slots = [[np.ndarray(a.shape, a.dtype, self._ring, offsets[s * len(like) + j])
                        for j, a in enumerate(like)] for s in range(RING_SLOTS)]
        self._fingerprint = np.ndarray(fingerprint_dim, np.float64, self._ring, blocks_size)
        super().__init__(np.ndarray(ckpt_size, np.uint8, self._ring,
                                    blocks_size + 8 * fingerprint_dim), store_dir, task)
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
        sched_getcpu.argtypes, sched_getcpu.restype = (), ctypes.c_int
        cpu = min(os.sched_getaffinity(0) - {sched_getcpu()})
        wants, self._wants = os.pipe()
        self._ready, ready = os.pipe()
        os.set_blocking(self._ready, False)
        saves, self._saves = os.pipe()
        self._saved, saved = os.pipe()
        self._process = None
        try:
            self._process = fork(_produce, task, seed, self.firsts, self._slots,
                                 self._fingerprint, self.slot, store_dir, cpu,
                                 (wants, ready, saves, saved),
                                 (self._wants, self._ready, self._saves, self._saved))
        except BaseException:
            self.close()
            raise
        finally:
            for fd in (wants, ready, saves, saved):
                os.close(fd)  # so that each pipe ends when the other side closes it

    def take(self, seed: int, first: int) -> tuple[np.ndarray, ...] | None:
        """The block of seed's steps from `first` if the producer has drawn it, else None."""
        if self._gone or seed != self.seed or first not in self.firsts:
            return None
        index = self.firsts.index(first)
        if index < self._wanted:
            return None
        block = None
        try:
            while block is None:  # blocks drawn before a leap the run passed over come first
                message = os.read(self._ready, 8)
                if not message:
                    self._gone = True
                    return None
                if int.from_bytes(message, "little") == index:
                    block = tuple(freeze(view.copy()) for view in self._slots[index % RING_SLOTS])
        except BlockingIOError:
            pass  # not drawn yet
        self._want(index + 1)
        return block

    def _want(self, index: int) -> None:
        try:
            os.write(self._wants, index.to_bytes(8, "little"))
        except BrokenPipeError:
            pass  # the producer is gone; reading the ready pipe finds it ended
        self._wanted = index

    def save(self, ckpt: Checkpoint) -> None:
        """Hand ckpt over as Handover does, and send its step to the producer."""
        super().save(ckpt)
        try:
            os.write(self._saves, ckpt.step.to_bytes(8, "little"))
        except BrokenPipeError:
            pass  # the producer is gone: settle finishes it here

    def settle(self) -> tuple[int, float, np.ndarray | None] | None:
        """Wait until the producer has finished the checkpoint handed over
        last, or finish it here if the producer is gone: its step, held-out
        loss and fingerprint if it was handed over with a NaN loss, else None."""
        if self.pending is None:
            return None
        reply = os.read(self._saved, _MEASURED.size)
        if not reply:
            return super().settle()
        ckpt, self.pending = self.pending, None
        if not np.isnan(ckpt.val_loss):
            return None
        val_loss, fingerprinted = _MEASURED.unpack(reply)
        return ckpt.step, val_loss, freeze(self._fingerprint.copy()) if fingerprinted else None

    def close(self) -> None:
        """Stop the producer and release the ring and the pipes; idempotent.

        A checkpoint handed over and not settled is abandoned: settle it
        first to have it written."""
        if self._ring.closed:
            return
        if self._process is not None:
            _stop(self._process)
        for fd in (self._wants, self._ready, self._saves, self._saved):
            os.close(fd)
        self._slots, self._fingerprint, self.slot = [], None, None  # views of the ring
        self._ring.close()


def _produce(task: Task, seed: int, firsts: range, slots: list[list[np.ndarray]],
             fingerprint_slot: np.ndarray, ckpt_slot: np.ndarray, store_dir: Path | None,
             cpu: int, fds: tuple[int, int, int, int], theirs: tuple[int, ...]) -> None:
    """The producer: draw the blocks the run will want into the ring, and
    finish the checkpoints it hands over, until it stops us."""
    wants, ready, saves, saved = fds
    for fd in theirs:
        os.close(fd)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return
    index = wanted = 0
    try:
        while True:
            ahead = min(wanted + len(slots), len(firsts))  # it may draw up to there
            readable = select.select([saves, wants], [], [], None if index >= ahead else 0)[0]
            if wants in readable:
                wanted = int.from_bytes(_read(wants)[-8:], "little")  # the run's last want
                index = max(index, wanted)
                ahead = min(wanted + len(slots), len(firsts))
            # the run's next block comes first: the run settles a checkpoint only at its next one
            if saves in readable and not index == wanted < len(firsts):
                step = int.from_bytes(_read(saves), "little")  # the next comes once it is settled
                try:  # a copy, so that the slot keeps a NaN loss for the run if we die
                    measured = finish_checkpoint(bytearray(ckpt_slot), step, store_dir, task)
                except Exception:
                    return  # unsettled, so the run does it and meets the error itself
                val_loss, fingerprint = measured or (0.0, None)  # unmeasured: a bare reply
                if fingerprint is not None:
                    np.copyto(fingerprint_slot, fingerprint)
                os.write(saved, _MEASURED.pack(val_loss, fingerprint is not None))
            if index < ahead:
                block = task.draw_block(seed, firsts[index])
                for view, array in zip(slots[index % len(slots)], block):
                    np.copyto(view, array)
                os.write(ready, index.to_bytes(8, "little"))
                index += 1
    except (EOFError, BrokenPipeError):
        return  # the run is over


def _read(fd: int) -> bytes:
    """Whole messages from fd, since each pipe write of at most PIPE_BUF bytes is atomic.

    Raises EOFError once the run has closed the pipe.
    """
    data = os.read(fd, 4096)
    if not data:
        raise EOFError
    return data


def one_blas_thread() -> bool:
    """Run OpenBLAS on one thread in this process; False if no OpenBLAS was found.

    The workers already use every CPU, and a BLAS thread pool in each would
    contend with the other workers for them. The library is looked up where
    the process linked it, then in numpy's wheel; another BLAS is left as it is.
    """
    bundled = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    libs = [None, *map(str, sorted(bundled.glob("*openblas*")))]
    for handle in map(ctypes.CDLL, libs):
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            if hasattr(handle, symbol):
                set_num_threads = getattr(handle, symbol)
                set_num_threads.argtypes, set_num_threads.restype = (ctypes.c_int,), None
                set_num_threads(1)
                return True
    return False
