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

Replay cases pin the offline protocol the same way: `run_experiment` over one
mlp-reg seed (400 steps, delta 20, K in {5, 25}, cascades 3x25, adaptive
criterion, the same thresholds) must write the same sweep.csv,
cascades.jsonl and report.txt, and `leapverify live` with the momentum or
quadratic predictor the same events.jsonl. Each runs under the paper
formulas and under the variant pair (momentum_variant = descent,
quad_variant = exact), so every prediction formula is pinned byte for byte,
including the later cascade stages that extrapolate from predicted states.
Events name the formula that ran, so the descent events read
"momentum_descent".

The hashes were taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64
(Python 3.11). Another numpy or BLAS build may round a matrix product
differently and change them without any change to this package.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from leapverify.cli import main
from leapverify.config import RunConfig, save_config
from leapverify.engine import SpeculationSettings, train_run
from leapverify.harness import build_hyper, run_experiment, write_loss_log
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


REPLAY = RunConfig(task="mlp-reg", seeds=(SEED,), steps=STEPS, delta=DELTA, k_set=(5, 25),
                   cascades=((3, 25),), criterion="adaptive",
                   tau_low=THRESHOLDS.tau_low, tau_high=THRESHOLDS.tau_high)
VARIANTS = {"paper": ("paper", "paper"), "descent-exact": ("descent", "exact")}

# variants -> sha256 of each replay output
GOLDEN_REPLAY = {
    "descent-exact": {
        "sweep.csv": "3fe069626ca4f9b3f2c4d69f44bda0e650ef7fc47481f6ff607448740476b14f",
        "cascades.jsonl": "6247876f062e7d80160ccc7118433248d42290f6c576326f1f64c6bc43638716",
        "report.txt": "50e9d42a78b2f66661cc9659b24c8a6579f8027368de29fbbcf56a3b019f5649",
    },
    "paper": {
        "sweep.csv": "b9680f07ce86640f9dadc583e896dc43aba599fcedb50b0cb3c2fdc9decff929",
        "cascades.jsonl": "85298c52e82e5ca6c0fe443aeefc5a964419d052c3f8166b5bc4b5f7bbaf3886",
        "report.txt": "89f3a7cf24f9f5c04694386146b186392c56190b9048a47f769fa9840374ba5f",
    },
}

# (live predictor, variants) -> sha256 of events.jsonl
GOLDEN_LIVE_EVENTS = {
    ("momentum", "descent-exact"): "7897eecf79e153fa182b0f66275e04dcc413444f65df2bb80383c981dd1f2fa4",
    ("momentum", "paper"): "f1380d8a925edeb79e8c5cc5b9be43f44f09b06eedbc922dfc65b8e7f4d15d09",
    ("quadratic", "descent-exact"): "0306b776e2d6f19ffa30881165afecf69a4efc435899d4e0d2a4fd293d487565",
    ("quadratic", "paper"): "24d2c02df0a8b3b3d6058fc60c1257380f890c953ab99ac5a389c43d632fcb93",
}


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("variants", sorted(VARIANTS))
def test_golden_replay(variants, tmp_path):
    momentum_variant, quad_variant = VARIANTS[variants]
    run_experiment(replace(REPLAY, momentum_variant=momentum_variant,
                           quad_variant=quad_variant, out=str(tmp_path)))
    run_dir = tmp_path / "runs" / "mlp-reg" / str(SEED)
    digests = {name: sha256_file(run_dir / name) for name in ("sweep.csv", "cascades.jsonl")}
    digests["report.txt"] = sha256_file(tmp_path / "report.txt")
    assert digests == GOLDEN_REPLAY[variants]


@pytest.mark.parametrize("predictor, variants", sorted(GOLDEN_LIVE_EVENTS))
def test_golden_live_events(predictor, variants, tmp_path):
    momentum_variant, quad_variant = VARIANTS[variants]
    config = tmp_path / "live.cfg"
    save_config(replace(REPLAY, live_predictor=predictor, live_k=25,
                        momentum_variant=momentum_variant, quad_variant=quad_variant), config)
    assert main(["live", "--config", str(config), "--out", str(tmp_path)]) == 0
    events = tmp_path / "live" / "mlp-reg" / str(SEED) / "events.jsonl"
    assert sha256_file(events) == GOLDEN_LIVE_EVENTS[(predictor, variants)]
