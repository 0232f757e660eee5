"""Worker processes that run harness.each_seed's seeds side by side.

The workers are forked from the command, so the callable and each worker's
share of the seeds reach them by inheritance, closures included; only
replies are pickled. Of n workers, worker j runs seeds j, j+n, j+2n, ... in
turn and sends each reply down a one-way pipe of which it is the only
writer. The command reads seed i's reply as the next message on the pipe of
worker i mod n, in seed order. A worker that dies (a signal, the OOM killer,
SystemExit) closes its pipe without replying, so the seed it owed fails
instead of leaving the command waiting.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import signal
import sys
import traceback
from collections.abc import Callable, Iterator, Sequence
from multiprocessing.connection import Connection
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

    Worker j runs seeds j, j + n_workers, j + 2 * n_workers, ... in turn. A
    seed whose fn raised, or that a dead worker owed, raises when its turn
    comes, as it would inline. However the generator ends, every worker is
    killed and reaped: after the last seed they are done, so this only
    stops unfinished seeds when one fails or the caller stops early.
    """
    sys.stdout.flush()  # else a worker's exit flushes this process's buffered output again
    sys.stderr.flush()
    context = multiprocessing.get_context("fork")
    crew: list[tuple[multiprocessing.Process, Connection]] = []
    try:
        for j in range(n_workers):
            pipe, theirs = context.Pipe(duplex=False)
            process = context.Process(target=_serve, args=(fn, seeds[j::n_workers], theirs),
                                      daemon=True)
            process.start()
            crew.append((process, pipe))
            theirs.close()  # before the next fork, so that the pipe ends when this worker does
        for index in range(len(seeds)):
            process, pipe = crew[index % n_workers]
            try:
                ok, value = pipe.recv()
            except EOFError:
                process.join()
                raise RuntimeError(f"worker exited with code {process.exitcode}") from None
            if not ok:
                exc, text = value
                exc.__cause__ = WorkerTraceback(text)
                raise exc
            yield value
    finally:
        for process, pipe in crew:
            process.kill()
            process.join()
            process.close()
            pipe.close()


def _serve(fn: Callable[[int], object], seeds: Sequence[int], pipe: Connection) -> None:
    """A worker: run fn on each of its seeds in turn and send back the result or exception."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the command, which ends us
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)  # and a command killed by a signal too
    one_blas_thread()
    for seed in seeds:
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
