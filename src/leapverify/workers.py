"""Worker processes that run harness.each_seed's seeds side by side.

The workers are forked from the command, so the callable reaches them by
inheritance, closures included; only seeds and replies are pickled. Each
worker has its own pipe, on which the command hands it its next seed, and
the command watches the pipe and the process sentinel of every busy worker,
so a worker that dies mid-seed (a signal, the OOM killer, SystemExit) fails
that seed instead of leaving the command waiting.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import signal
import sys
import traceback
from collections.abc import Callable, Iterator, Sequence
from multiprocessing.connection import Connection, wait
from pathlib import Path

import numpy as np

_PR_SET_PDEATHSIG = 1  # linux/prctl.h


class WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker, set as its __cause__ here."""


def in_worker() -> bool:
    """Whether this process is a worker, which runs any seeds of its own inline."""
    return multiprocessing.current_process().daemon


def results(fn: Callable[[int], object], seeds: Sequence[int], n_workers: int) -> Iterator[object]:
    """fn(seed) for each seed in seed order, run by n_workers processes forked from this one.

    A seed whose fn raised, or whose worker died, raises when its turn comes,
    as it would inline. However the generator ends, every worker is killed
    and reaped: after the last seed they are idle, so this only stops
    unfinished seeds when one fails or the caller stops early.
    """
    sys.stdout.flush()  # else a worker's exit flushes this process's buffered output again
    sys.stderr.flush()
    context = multiprocessing.get_context("fork")
    jobs = iter(enumerate(seeds))
    crew: list[tuple[multiprocessing.Process, Connection]] = []
    busy: dict[Connection, tuple[multiprocessing.Process, int]] = {}  # pipe -> worker, seed index
    replies: dict[int, tuple[bool, object]] = {}

    def hand_next(process: multiprocessing.Process, pipe: Connection) -> None:
        for index, seed in jobs:  # at most one
            pipe.send(seed)
            busy[pipe] = process, index
            break

    try:
        for _ in range(n_workers):
            pipe, theirs = context.Pipe()
            process = context.Process(target=_serve, args=(fn, theirs), daemon=True)
            process.start()
            crew.append((process, pipe))
            theirs.close()
            hand_next(process, pipe)
        for index in range(len(seeds)):
            while index not in replies:
                pipes = {process.sentinel: pipe for pipe, (process, _) in busy.items()}
                for ready in wait([*busy, *pipes]):
                    pipe = pipes.get(ready, ready)
                    if pipe in busy:  # not already read through its other handle
                        process, done = busy.pop(pipe)
                        replies[done] = _reply(process, pipe)
                        if process.exitcode is None:
                            hand_next(process, pipe)
            ok, value = replies.pop(index)
            if not ok:
                raise value
            yield value
    finally:
        for process, pipe in crew:
            process.kill()
            process.join()
            process.close()
            pipe.close()


def _reply(process: multiprocessing.Process, pipe: Connection) -> tuple[bool, object]:
    """What the worker sent for its seed, or a failure if it died before sending it."""
    try:
        if pipe.poll():
            ok, value = pipe.recv()
            if ok:
                return True, value
            exc, text = value
            exc.__cause__ = WorkerTraceback(text)
            return False, exc
    except EOFError:
        pass
    process.join()
    return False, RuntimeError(f"worker exited with code {process.exitcode}")


def _serve(fn: Callable[[int], object], pipe: Connection) -> None:
    """A worker: run fn on each seed the command sends and send back the result or exception."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the command, which ends us
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)  # and a command killed by a signal too
    one_blas_thread()
    while True:
        seed = pipe.recv()
        try:
            reply = True, fn(seed)
        except Exception as exc:
            reply = False, (exc, "".join(traceback.format_exception(exc)))
        pipe.send(reply)


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
