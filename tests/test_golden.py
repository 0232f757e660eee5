"""Golden hashes: short training runs are pinned bit for bit.

Each case trains one task for 400 steps with a checkpoint every 20 and hashes
what the run leaves behind: the training state of every checkpoint (step,
parameters, Adam moments, held-out loss and seed, as load_checkpoint decodes
them), loss_log.csv, events.jsonl (when speculation ran), the final parameters
and the final Adam moments. A change to the training step, the optimizer or
batch generation that moves a single bit of any of them fails here, so speed
work on that path must keep the float operation order exactly. The byte
layout of a checkpoint file is pinned on its own, in test_trajectory.py.

Modes: `plain` training; `live` speculation (adaptive criterion, linear
predictor, K = 25) that carries the moments over a leap; `decay`, the same
with the decay fast-forward policy; and `force-reject`, which verifies every
speculation but never leaps. The thresholds label every checkpoint after the
first as stable, so every eligible checkpoint speculates. The leap count is
pinned with each hash, so the live modes are known to really leap.

Replay cases pin the offline protocol the same way: `run_experiment` over one
mlp-reg seed (400 steps, delta 20, K in {5, 25}, cascades 3x25, adaptive
criterion, the same thresholds) must write the same sweep.csv,
cascades.jsonl, report.txt and report.json (whose one mention of the output
root is replaced by a fixed token first), and `leapverify live` with the
momentum or quadratic predictor the same events.jsonl. Each runs under the paper
formulas and under the variant pair (momentum_variant = descent,
quad_variant = exact), so every prediction formula is pinned byte for byte.
Cascade stage n scores theta_t + n * (stage 1's displacement) against stage
n-1's loss, so a quadratic cascade's curvature enters only in stage 1. The
sweep scores each checkpoint's grid in one pass (engine.speculate_grid), so
its L_hat column pins that path, and so does each cascade's stage 1, which
reads its loss from the sweep; later cascade stages and live events pin the
exact forward.
Events name the formula that ran, so the descent events read
"momentum_descent". The same replay and live runs over seeds 42 and 43 must
leave seed 42 the same files: given two CPUs, harness.each_seed runs the two
seeds in forked workers, and given one (`taskset -c 0`), in this process.
Likewise a run trained in this process has its batches drawn ahead by a
producer process given two CPUs (engine.batches_drawn_ahead), and draws them
itself given one, so the same digests pin both ways of drawing them.

The hashes were taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64
(Python 3.11). Another numpy or BLAS build may round a matrix product
differently and change them without any change to this package.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import replace

import pytest

from leapverify.cli import main
from leapverify.config import RunConfig, save_config
from leapverify.engine import SpeculationSettings, train_run
from leapverify.harness import build_hyper, read_sweep_csv, run_experiment, write_loss_log
from leapverify.regime import Thresholds
from leapverify.tasks import make_task
from leapverify.trajectory import load_checkpoint

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
    ("quad-bowl", "plain"): ("94ed141c2893b9a04f12c03f2c54fb4506478c791d252b750c418c1cd451917c", 0),
    ("quad-bowl", "live"): ("3615c6fce223a3855deb870193f081cfc98f848ef8fc6ad7cd50d4875e1e68c4", 6),
    ("quad-bowl", "decay"): ("44a496d7d60e7a0f5802b0e5fb6070e1394b55baf6ba13468b26e276407dd173", 5),
    ("quad-bowl", "force-reject"): ("89a371705305368358b57eae574d4bf2c3363d6c6f12259edc7cd4d55c442e64", 0),
    ("mlp-reg", "plain"): ("99a606c619787ef4eaf546aecfd214809ce6e2fdb2cfaacb65cdae7323f41f60", 0),
    ("mlp-reg", "live"): ("e5cd3932ae05b76512d075c280432c905175ed2170985b42dce99e0559d3ac82", 2),
    ("mlp-reg", "decay"): ("57471fe2b2384725263b9d9fd602d7598c565eaa8a6da23c7e8e3975932926b3", 2),
    ("mlp-reg", "force-reject"): ("03a2b57b4b9e04989b0e75e6a899647096572bb1833572e2a445156bbdb2ef9a", 0),
    ("char-seq", "plain"): ("afc5a8fe0ad811e2bbdb7c7525557e282ce26cc78607cbd0c9cff42914fbf5cc", 0),
    ("char-seq", "live"): ("a0a256a7a6c2d47e3bba40b1fd1d6223992feb6d946f0dcef3cd022d1aa84761", 2),
    ("char-seq", "decay"): ("9e94792c4c0c1b99eb1ae049b5f45faa1a7ac241032d8f0afa8b99b34b5b7e7b", 2),
    ("char-seq", "force-reject"): ("f59bd4d0137c729edc9a070e1c9b4ac219e2051b247b41223402d0435a8143a0", 0),
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
        if path.suffix == ".lpv":
            ckpt = load_checkpoint(path)
            digest.update(struct.pack("<QdQ", ckpt.step, ckpt.val_loss, ckpt.seed))
            for arr in (ckpt.theta, ckpt.m, ckpt.v):
                digest.update(arr.tobytes())
        else:
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
        "sweep.csv": "b9f72daefbc5528df9cbe15712d6b8c17321931c9446f4ccc2f2aaa1463cd1e5",
        "cascades.jsonl": "3aeee12242671bb1773c4da6386e03a28ee9ecc639fd6a1dfedfd544444fe030",
        "report.txt": "50e9d42a78b2f66661cc9659b24c8a6579f8027368de29fbbcf56a3b019f5649",
        "report.json": "0e273205a26390797d69d646c7de7001554f5d75b254b084e5bdcbcb6dd8ada8",
    },
    "paper": {
        "sweep.csv": "b102e02c44db34136684889016ecb2eef2398a2515e241e931810a5140dfcd20",
        "cascades.jsonl": "fdca310bb11f82292e68e1576eba4593007d188600a827205cdb478ccc5a121d",
        "report.txt": "89f3a7cf24f9f5c04694386146b186392c56190b9048a47f769fa9840374ba5f",
        "report.json": "b11bcf8986451a465c171b66b6fd80a313482dd1da0065c841c8745ba60c501e",
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
    # report.json's config names the output root; pin every other byte
    report_json = (tmp_path / "report.json").read_text().replace(json.dumps(str(tmp_path)),
                                                                 '"<out>"')
    digests["report.json"] = hashlib.sha256(report_json.encode()).hexdigest()
    assert digests == GOLDEN_REPLAY[variants]


@pytest.mark.parametrize("variants", sorted(VARIANTS))
def test_cascade_stage_one_is_the_sweep_cell(variants, tmp_path):
    momentum_variant, quad_variant = VARIANTS[variants]
    run_experiment(replace(REPLAY, momentum_variant=momentum_variant,
                           quad_variant=quad_variant, out=str(tmp_path)))
    run_dir = tmp_path / "runs" / "mlp-reg" / str(SEED)
    cells = {(c.checkpoint_step, c.predictor, c.k): c
             for c in read_sweep_csv(run_dir / "sweep.csv", REPLAY.epsilon)}
    rows = [json.loads(line) for line in (run_dir / "cascades.jsonl").read_text().splitlines()]
    assert rows
    for row in rows:
        cell, event = cells[row["start_step"], row["predictor"], row["k"]], row["events"][0]
        assert event["stage"] == 1
        assert event["decision"]["l_hat"].hex() == cell.l_hat.hex()
        assert event["decision"][REPLAY.criterion] == cell.decision.verdict(REPLAY.criterion)


@pytest.mark.parametrize("predictor, variants", sorted(GOLDEN_LIVE_EVENTS))
def test_golden_live_events(predictor, variants, tmp_path):
    momentum_variant, quad_variant = VARIANTS[variants]
    config = tmp_path / "live.cfg"
    save_config(replace(REPLAY, live_predictor=predictor, live_k=25,
                        momentum_variant=momentum_variant, quad_variant=quad_variant), config)
    assert main(["live", "--config", str(config), "--out", str(tmp_path)]) == 0
    events = tmp_path / "live" / "mlp-reg" / str(SEED) / "events.jsonl"
    assert sha256_file(events) == GOLDEN_LIVE_EVENTS[(predictor, variants)]


@pytest.mark.parametrize("variants", sorted(VARIANTS))
def test_golden_replay_of_one_seed_among_two(variants, tmp_path):
    momentum_variant, quad_variant = VARIANTS[variants]
    run_experiment(replace(REPLAY, seeds=(SEED, SEED + 1), momentum_variant=momentum_variant,
                           quad_variant=quad_variant, out=str(tmp_path)))
    run_dir = tmp_path / "runs" / "mlp-reg" / str(SEED)
    for name in ("sweep.csv", "cascades.jsonl"):
        assert sha256_file(run_dir / name) == GOLDEN_REPLAY[variants][name]


@pytest.mark.parametrize("predictor, variants", sorted(GOLDEN_LIVE_EVENTS))
def test_golden_live_events_of_one_seed_among_two(predictor, variants, tmp_path):
    momentum_variant, quad_variant = VARIANTS[variants]
    config = tmp_path / "live.cfg"
    save_config(replace(REPLAY, seeds=(SEED, SEED + 1), live_predictor=predictor, live_k=25,
                        momentum_variant=momentum_variant, quad_variant=quad_variant), config)
    assert main(["live", "--config", str(config), "--out", str(tmp_path)]) == 0
    events = tmp_path / "live" / "mlp-reg" / str(SEED) / "events.jsonl"
    assert sha256_file(events) == GOLDEN_LIVE_EVENTS[(predictor, variants)]
