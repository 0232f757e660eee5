"""The benchmark's three workloads: set-up, one timed repetition, checks.

* ``offline-mlp``  -- ``leapverify run-all`` with defaults on ``mlp-reg``.
* ``replay-dense`` -- ``leapverify sweep``, ``cascade`` and ``report`` over
  ``mlp-reg`` checkpoints that set-up trains with ``leapverify calibrate``
  and ``train`` every 25 steps (twice the default density).
* ``live-char``    -- per seed, ``leapverify train`` against ``leapverify
  live`` on ``char-seq`` (adaptive criterion, linear predictor, K = 25),
  alternating which runs first, with thresholds calibrated in set-up.

Every timed call goes through ``leapverify.cli.main`` with a generated
config file, so the library only ever receives that config and the
benchmark measures the code paths users run. Phase times (training,
replay) come from the tracer that the runner keeps around each repetition.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from leapverify import cli as C
from leapverify import engine as E
from leapverify import harness as H
from leapverify import optim as O
from leapverify.config import RunConfig, save_config
from leapverify.regime import Thresholds
from leapverify.trajectory import load_run_checkpoints

@dataclass(frozen=True)
class Size:
    seeds: int
    steps: int
    delta: int
    dense_delta: int
    warmup_s: float
    min_reps: int


# live-char needs (steps - 25) % delta != 0, so that no leap lands on the
# last step and every run stores a checkpoint of its final parameters
FULL = Size(seeds=5, steps=2000, delta=50, dense_delta=25, warmup_s=1.0, min_reps=3)
SMOKE = Size(seeds=2, steps=300, delta=20, dense_delta=15, warmup_s=0.1, min_reps=1)


def run_seeds(seed: int, n: int) -> tuple[int, ...]:
    return tuple(range(seed, seed + n))


def calibration_seeds(seed: int) -> tuple[int, int]:
    """Two calibration seeds per benchmark seed; seed 42 gives (1, 2)."""
    j = (seed - 42) % 1_000_000
    return (2 * j + 1, 2 * j + 2)


class Ops:
    """Counts attempted and failed operations: one command or one check.

    A failure is logged with its workload, pass, seed and step, and the run
    goes on with the next operation.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list[dict] = []

    def _fail(self, pass_name: str, seed: int | None, step: int | None, error: str) -> None:
        if seed is None and (found := re.search(r"seed (\d+)", error)):
            seed = int(found.group(1))
        if step is None and (found := re.search(r"step (\d+)", error)):
            step = int(found.group(1))
        entry = {"workload": self.workload, "pass": pass_name, "seed": seed,
                 "step": step, "error": error}
        self.failures.append(entry)
        print(f"FAILED {self.workload} pass={pass_name} seed={seed} step={step}: {error}",
              file=sys.stderr)

    def attempt(self, pass_name: str, seed: int | None, fn, *args, **kwargs):
        """Run fn as one operation; return (ok, result or None)."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:  # a failed pass must not stop the benchmark
            self._fail(pass_name, seed, None,
                       f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            return False, None

    def check(self, pass_name: str, seed: int | None, ok: bool, *,
              step: int | None = None, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self._fail(pass_name, seed, step, detail)


@dataclass
class Ctx:
    """What every workload shares: its name, seed, size, scratch dir and op log.

    Workloads time with `clock`, which the runner replaces with one that
    stops while it samples the machine's speed.
    """

    workload: str
    seed: int
    size: Size
    work: Path
    ops: Ops
    tracer: object | None = None
    clock: Callable[[], float] = time.perf_counter

    def mark(self, run_id: str) -> None:
        if self.tracer is not None:
            self.tracer.run_id = run_id

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Rep:
    """One timed repetition: its wall time and what it produced.

    Times of phases inside the repetition (training, replay) are read from
    the tracer by the runner; live-char records its two sides here.
    """

    wall_s: float = 0.0
    plain_s: float = 0.0
    live_s: float = 0.0
    digest: str = ""
    disk_bytes: int = 0


def files_state(root: Path) -> dict[str, tuple[int, int, int]]:
    """(inode, size, mtime) of every file under root: a rewrite changes one of them."""
    state = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            state[str(path)] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return state


def bytes_written(before: dict, after: dict) -> int:
    return sum(size for path, (ino, size, mtime) in after.items()
               if before.get(path) != (ino, size, mtime))


def dir_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def cli(*argv) -> str:
    """Run one ``leapverify`` command in this process; return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = C.main(argv)
    if code != 0:
        raise RuntimeError(f"leapverify {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def warm_up(task, cfg: RunConfig, seconds: float) -> None:
    """Run the hot calls untimed until `seconds` pass (BLAS threads, caches)."""
    hyper = H.build_hyper(cfg, task)
    theta, state, step = task.init_params(0), O.init_state(task.param_dim, hyper), 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        if step == cfg.steps:
            theta, state, step = task.init_params(0), O.init_state(task.param_dim, hyper), 0
        grad = task.loss_and_grad(theta, task.batch(0, step)).grad
        state, theta = O.apply_update(state, theta, grad)
        task.validation_loss(theta)
        task.fingerprint(theta)
        step += 1


class Workload:
    """Writes the workload's config file; subclasses add set-up, reps and checks."""

    setups = 3

    def __init__(self, ctx: Ctx, cfg: RunConfig):
        self.ctx, self.cfg = ctx, cfg
        self.config = ctx.work / "config.in"
        save_config(cfg, self.config)

    def setup(self) -> None:
        self.task = H.build_task(self.cfg)


class OfflineMlp(Workload):
    """``leapverify run-all`` with defaults: what users run, training-bound."""

    name = "offline-mlp"

    def __init__(self, ctx: Ctx):
        s = ctx.size
        super().__init__(ctx, RunConfig(seeds=run_seeds(ctx.seed, s.seeds),
                                        calibration_seeds=calibration_seeds(ctx.seed),
                                        steps=s.steps, delta=s.delta))

    def rep(self, r: int) -> Rep:
        """One ``run-all`` into a fresh output root, so it calibrates every time."""
        ctx, rep = self.ctx, Rep()
        self.out = out = ctx.fresh_dir("rep")
        ctx.mark(f"rep{r}/run-all")
        start = ctx.clock()
        ctx.ops.attempt("run-all", None, cli, "run-all", "--config", self.config,
                        "--out", out, "--force")
        rep.wall_s = ctx.clock() - start
        rep.disk_bytes = dir_bytes(out)
        rep.digest = sha256_file(out / "report.txt")
        return rep

    def checks(self, reps: list[Rep]) -> dict:
        """report.txt must equal, byte for byte, ``leapverify report`` over its outputs."""
        written = (self.out / "report.txt").read_bytes() if reps[-1].digest else b""
        ok, _ = self.ctx.ops.attempt("check-report", None, cli, "report", "--out", self.out)
        if ok:
            self.ctx.ops.check("check-report", None,
                               (self.out / "report.txt").read_bytes() == written,
                               detail="run-all report.txt differs from its re-aggregation")
        return {"report_txt_sha256": reps[-1].digest}


class ReplayDense(Workload):
    """Offline replay only, over checkpoints trained in set-up every 25 steps."""

    name = "replay-dense"

    def __init__(self, ctx: Ctx):
        s = ctx.size
        super().__init__(ctx, RunConfig(seeds=run_seeds(ctx.seed, s.seeds),
                                        calibration_seeds=calibration_seeds(ctx.seed),
                                        steps=s.steps, delta=s.dense_delta))
        self.out = ctx.work / "runs"

    def setup(self) -> None:
        """Build the task, calibrate and train every seed with stored checkpoints."""
        super().setup()
        ops, common = self.ctx.ops, ("--config", self.config, "--out", self.out)
        ops.attempt("setup-calibrate", None, cli, "calibrate", *common)
        ops.attempt("setup-train", None, cli, "train", *common, "--force")

    def rep(self, r: int) -> Rep:
        ctx, rep, out = self.ctx, Rep(), self.out
        common = ("--config", self.config, "--out", out)
        before = files_state(out)
        start = ctx.clock()
        for command in ("sweep", "cascade", "report"):
            ctx.mark(f"rep{r}/{command}")
            ctx.ops.attempt(command, None, cli, command, *common)
        rep.wall_s = ctx.clock() - start
        rep.disk_bytes = bytes_written(before, files_state(out))
        rep.digest = sha256_file(out / "report.txt")
        return rep

    def checks(self, reps: list[Rep]) -> dict:
        return {"report_txt_sha256": reps[-1].digest}


def read_thresholds(path: Path) -> Thresholds:
    values = dict(line.replace(" ", "").split("=") for line in path.read_text().splitlines())
    return Thresholds(tau_low=float(values["tau_low"]), tau_high=float(values["tau_high"]))


def final_checkpoint(run_dir: Path, steps: int):
    """The stored checkpoint of the run's last step, which holds theta_final."""
    last = load_run_checkpoints(run_dir)[-1]
    if last.step != steps:
        raise RuntimeError(f"{run_dir}: last checkpoint is at step {last.step}, not {steps}")
    return last


def final_val_loss(run_dir: Path) -> float:
    """Held-out loss at the last checkpoint, from the run's loss_log.csv."""
    return float((run_dir / "loss_log.csv").read_text().splitlines()[-1].split(",")[1])


class LiveChar(Workload):
    """``leapverify train`` against ``leapverify live`` on char-seq, seed by seed."""

    name = "live-char"

    def __init__(self, ctx: Ctx):
        s = ctx.size
        super().__init__(ctx, RunConfig(task="char-seq", seeds=run_seeds(ctx.seed, s.seeds),
                                        calibration_seeds=calibration_seeds(ctx.seed),
                                        steps=s.steps, delta=s.delta, criterion="adaptive",
                                        live_predictor="linear", live_k=25))
        self.out = ctx.work / "out"

    def setup(self) -> None:
        """Build the task and calibrate thresholds into the output root."""
        super().setup()
        self.ctx.ops.attempt("setup-calibrate", None, cli, "calibrate", "--config", self.config,
                             "--out", self.out)

    def dirs(self, seed: int) -> dict[str, Path]:
        return {"plain": H.run_dir_for(self.out, self.task.name, seed),
                "live": self.out / "live" / self.task.name / str(seed)}

    def rep(self, r: int) -> Rep:
        ctx, rep, out = self.ctx, Rep(), self.out
        for sub in ("runs", "live"):
            shutil.rmtree(out / sub, ignore_errors=True)
        command = {"plain": "train", "live": "live"}
        start = ctx.clock()
        for i, seed in enumerate(self.cfg.seeds):
            sides = ("plain", "live") if (i + r) % 2 == 0 else ("live", "plain")
            for side in sides:
                ctx.mark(f"rep{r}/seed{seed}/{side}")
                side_start = ctx.clock()
                ctx.ops.attempt(command[side], seed, cli, command[side], "--config",
                                self.config, "--out", out, "--seeds", seed, "--force")
                elapsed = ctx.clock() - side_start
                if side == "plain":
                    rep.plain_s += elapsed
                else:
                    rep.live_s += elapsed
        rep.wall_s = ctx.clock() - start
        rep.disk_bytes = dir_bytes(out / "runs") + dir_bytes(out / "live")
        rep.digest = ctx.ops.attempt("read-final", None, self._final_thetas_sha256)[1] or ""
        return rep

    def _final_thetas_sha256(self) -> str:
        digest = hashlib.sha256()
        for side in ("plain", "live"):
            for seed in self.cfg.seeds:
                digest.update(final_checkpoint(self.dirs(seed)[side], self.cfg.steps)
                              .theta.tobytes())
        return digest.hexdigest()

    def checks(self, reps: list[Rep]) -> dict:
        """A force-rejected run must be bit-identical to the plain run of its seed."""
        ops, seed = self.ctx.ops, self.cfg.seeds[0]
        ok, verdict = ops.attempt("check-force-reject", seed, self._force_reject_diff, seed)
        if ok:
            ops.check("check-force-reject", seed, verdict is None, step=verdict,
                      detail="force-rejected run differs from the plain run")
        _, delta_pct = ops.attempt("read-final-loss", None, self._final_loss_delta_pct)
        return {"final_theta_sha256": reps[-1].digest,
                "final_loss_delta_pct": float("nan") if delta_pct is None else delta_pct}

    def _final_loss_delta_pct(self) -> float:
        """Mean over seeds of 100 (live - plain) / plain held-out loss at the last step."""
        deltas = []
        for seed in self.cfg.seeds:
            plain, live = (final_val_loss(d) for d in self.dirs(seed).values())
            deltas.append(100.0 * (live - plain) / plain)
        return float(np.mean(deltas))

    def _force_reject_diff(self, seed: int) -> int | None:
        """Run ``leapverify live`` for one seed with every leap rejected.

        Returns None when its final parameters and loss_log.csv equal those of
        the seed's ``train`` run bit for bit, else the first differing step
        (-1 when only the final parameters or the number of rows differ).
        """
        cfg, store_dir = self.cfg, self.ctx.fresh_dir("rejected")
        speculation = E.SpeculationSettings(
            predictor=H.resolve_predictor(cfg.live_predictor, cfg.quad_variant),
            k=cfg.live_k, criterion=cfg.criterion, apply=False,
            regime_gating=cfg.regime_gating)
        result = E.train_run(self.task, seed, total_steps=cfg.steps, delta=cfg.delta,
                             hyper=H.build_hyper(cfg, self.task),
                             thresholds=read_thresholds(self.out / C.THRESHOLDS_FILE),
                             epsilon=cfg.epsilon, adaptive_window=cfg.adaptive_window,
                             momentum_variant=cfg.momentum_variant, ff_policy=cfg.ff_policy,
                             speculation=speculation, store_dir=store_dir)
        H.write_loss_log(result, store_dir)
        plain_dir = self.dirs(seed)["plain"]
        plain_log = (plain_dir / "loss_log.csv").read_text().splitlines()
        rejected_log = (store_dir / "loss_log.csv").read_text().splitlines()
        for a, b in zip(plain_log[1:], rejected_log[1:]):
            if a != b:
                return int(a.split(",")[0])
        plain = final_checkpoint(plain_dir, cfg.steps).theta
        rejected = final_checkpoint(store_dir, cfg.steps).theta
        same = plain.tobytes() == rejected.tobytes() and len(plain_log) == len(rejected_log)
        return None if same else -1


WORKLOADS = {w.name: w for w in (OfflineMlp, ReplayDense, LiveChar)}
