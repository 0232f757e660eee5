"""Golden hashes: short training runs are pinned bit for bit.

Each case trains one task for 400 steps with a checkpoint every 20 and hashes
what the run leaves behind: every checkpoint file, loss_log.csv, events.jsonl
(when speculation ran), the final parameters and the final Adam moments. A
change to the training step, the optimizer or batch generation that moves a
single bit of any of them fails here, so speed work on that path must keep
the float operation order exactly.

Modes: `plain` training; `live` speculation (adaptive criterion, linear
predictor, K = 25) that carries the moments over a leap; `decay`, the same
with the decay fast-forward policy; and `force-reject`, which verifies every
speculation but never leaps. The thresholds label every checkpoint after the
first as stable, so every eligible checkpoint speculates. The leap count is
pinned with each hash, so the live modes are known to really leap.

The hashes were taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64
(Python 3.11). Another numpy or BLAS build may round a matrix product
differently and change them without any change to this package.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from leapverify.config import RunConfig
from leapverify.engine import SpeculationSettings, train_run
from leapverify.harness import build_hyper, write_loss_log
from leapverify.regime import Thresholds
from leapverify.tasks import make_task

STEPS, DELTA, SEED = 400, 20, 42
THRESHOLDS = Thresholds(tau_low=-0.999, tau_high=-0.99)
LIVE = SpeculationSettings(predictor="linear", k=25, criterion="adaptive")
MODES = {
    "plain": {},
    "live": {"speculation": LIVE},
    "decay": {"speculation": LIVE, "ff_policy": "decay"},
    "force-reject": {"speculation": replace(LIVE, apply=False)},
}

# (task, mode) -> (sha256 over the run's outputs, leaps applied)
GOLDEN = {
    ("quad-bowl", "plain"): ("a5bb97e7a6ab3e8a72112403672a30aeb07c2a48c2412b681dc216417b90e749", 0),
    ("quad-bowl", "live"): ("0b1584ceae7ab4930dda5a45468f48b79c68de0fc7c42f07ead12006ebf34e19", 6),
    ("quad-bowl", "decay"): ("b6c1645ba3059269612bed9293a33e7cc22160a6c4217d155affec93445ea195", 5),
    ("quad-bowl", "force-reject"): ("b514d26d74c8e242e2fb1569e3178e8b40c096e7ae5d45000f972854c8646759", 0),
    ("mlp-reg", "plain"): ("9d1bd13878f2906305a38ee1f90a31c51a8d4bfbf851f18a78d9c271a537e51a", 0),
    ("mlp-reg", "live"): ("fc56067eef3381b4afe23510ee694d36adcbf0b399aafce79fb97352047887f0", 2),
    ("mlp-reg", "decay"): ("6a33981c9f583d69f4b396f44af4f39baa7ab442ba388dce53eb105737607f71", 2),
    ("mlp-reg", "force-reject"): ("69a7346693c18d793a32bf3d49fe4c28fce0cfb84d9fdd064fe3663aeb02d685", 0),
    ("char-seq", "plain"): ("51f2a7018ad3f63cff02fbfead6b53460541719c501dee4df30dbad353f12556", 0),
    ("char-seq", "live"): ("9c93b71962bd5dc9c3148f9ea3334349f07d16f1f8625784da20989feb4c4bd1", 2),
    ("char-seq", "decay"): ("863d2869d3c2d058b7c1689fb42044d4c24ba57492b6073f2f9012969a5600b4", 2),
    ("char-seq", "force-reject"): ("3fd61b68144f2b9a19392654058528b62c2fab0b389f4d6ee7dd14fe747a4a23", 0),
}


def run_digest(task_name: str, mode: str, out) -> tuple[str, int]:
    task = make_task(task_name)
    hyper = build_hyper(RunConfig(task=task_name, steps=STEPS, delta=DELTA), task)
    result = train_run(task, SEED, total_steps=STEPS, delta=DELTA, hyper=hyper,
                       thresholds=THRESHOLDS, store_dir=out, **MODES[mode])
    write_loss_log(result, out)
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    for arr in (result.theta_final, result.adam_final.m, result.adam_final.v):
        digest.update(arr.tobytes())
    return digest.hexdigest(), sum(ev.applied for ev in result.events)


@pytest.mark.parametrize("task_name, mode", sorted(GOLDEN))
def test_golden_hash(task_name, mode, tmp_path):
    assert run_digest(task_name, mode, tmp_path) == GOLDEN[(task_name, mode)]
