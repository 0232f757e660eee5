from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from leapverify.core import freeze
from leapverify.trajectory import Checkpoint


def make_checkpoint(step: int, theta, *, val_loss: float = 1.0, seed: int = 0,
                    m=None, v=None) -> Checkpoint:
    theta = freeze(np.asarray(theta, dtype=np.float64).copy())
    n = theta.shape[0]
    return Checkpoint(
        step=step,
        theta=theta,
        m=freeze(np.zeros(n) if m is None else np.asarray(m, dtype=np.float64).copy()),
        v=freeze(np.ones(n) if v is None else np.asarray(v, dtype=np.float64).copy()),
        val_loss=val_loss,
        seed=seed,
    )


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count harness.each_seed sees: 1 runs seeds inline, more starts workers."""
    def set_cpus(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process running: seed workers and
    batch producers must be stopped however their command or run ends."""
    yield
    assert multiprocessing.active_children() == []
