"""Span tracer that wraps leapverify's public functions from outside.

Inside a ``with Tracer() as tracer:`` block every function named in
``TARGETS`` is replaced, under every name a caller looks it up by (module
attributes across the ``leapverify`` package and the methods of the ``Task``
subclasses), with a wrapper that records one span per call. The originals
are restored when the block exits, even on error. Spans stay in memory as
``(name, start_ns, end_ns, parent, run_id)`` tuples; ``parent`` is the index
of the enclosing span or -1.

A few wrappers also read the call's arguments or result to count work done
where it happens: checkpoint bytes, speculation verdicts, leaps, cascade
stages, replay evaluations and live steps.

``Tracer(PHASES, task_methods=False, on_top=...)`` wraps only the harness
passes and ``train_run``: a handful of calls per repetition. The runner keeps
one around every set-up and repetition to split its wall time into training
and replay phases, and has it call ``on_top`` after each outermost call
returns, between passes, to sample the machine's speed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from leapverify import tasks as tasks_module
from leapverify.verify import CRITERIA

TASK_METHODS = ("batch", "loss_and_grad", "validation_loss", "fingerprint")

TARGETS = {
    "optim": ("apply_update", "fast_forward"),
    "predict": ("predict_momentum", "predict_linear", "predict_quadratic"),
    "verify": ("decide",),
    "regime": ("similarity_at", "calibrate"),
    "trajectory": ("save_checkpoint", "load_checkpoint"),
    "engine": ("train_run", "speculate", "leap_or_continue", "run_cascade"),
    "harness": ("calibrate_thresholds", "pass1_train", "pass2_ksweep", "pass3_cascades",
                "aggregate", "write_report", "write_sweep_csv", "read_sweep_csv",
                "write_cascade_rows"),
}

PHASES = {
    "engine": ("train_run",),
    "harness": ("calibrate_thresholds", "pass1_train", "pass2_ksweep", "pass3_cascades"),
}


def _count_decide(tracer, args, kwargs, result):
    for criterion in CRITERIA:
        verdict = result.verdict(criterion)
        if verdict is not None:
            tracer.counts[f"decide.{criterion}.attempted"] += 1
            tracer.counts[f"decide.{criterion}.accepted"] += int(verdict)


def _count_leap(tracer, args, kwargs, result):
    event = result[0]
    if event is not None:
        tracer.counts["leap_or_continue.attempts"] += 1
        tracer.counts["leap_or_continue.leaps"] += int(event.applied)


def _count_stages(tracer, args, kwargs, result):
    tracer.counts["run_cascade.stages"] += len(result)


def _count_swept(tracer, args, kwargs, result):
    tracer.counts["replay.evals"] += sum(cell.eligible for cell in result)


def _count_cascaded(tracer, args, kwargs, result):
    tracer.counts["replay.evals"] += sum(len(row.events) for row in result)


def _count_live_steps(tracer, args, kwargs, result):
    if kwargs.get("speculation") is not None:
        tracer.counts["train_run.planned"] += kwargs["total_steps"]
        tracer.counts["train_run.skipped"] += result.skipped_steps


def _count_saved(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["save_checkpoint.bytes"] += os.path.getsize(path)


def _count_loaded(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["load_checkpoint.bytes"] += os.path.getsize(path)


HOOKS = {
    "verify.decide": _count_decide,
    "engine.leap_or_continue": _count_leap,
    "engine.run_cascade": _count_stages,
    "engine.train_run": _count_live_steps,
    "trajectory.save_checkpoint": _count_saved,
    "trajectory.load_checkpoint": _count_loaded,
    "harness.pass2_ksweep": _count_swept,
    "harness.pass3_cascades": _count_cascaded,
}


class Tracer:
    """Records spans around leapverify's public functions while active."""

    def __init__(self, targets: dict = TARGETS, task_methods: bool = True,
                 on_top=None) -> None:
        self.targets, self.task_methods, self.on_top = targets, task_methods, on_top
        self.spans: list = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.run_id)
            if hook is not None:
                hook(self, args, kwargs, result)
            if not stack and self.on_top is not None:
                self.on_top()
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "leapverify" or n.startswith("leapverify."))]
        for layer, names in self.targets.items():
            home = sys.modules[f"leapverify.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for cls in tasks_module.Task.__subclasses__() if self.task_methods else ():
            for method in TASK_METHODS:
                if method in vars(cls):
                    self._patch(cls, method, self._wrap(f"tasks.{method}", vars(cls)[method]))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def total_s(self, *names: str) -> float:
        """Summed duration of the spans with these names."""
        return sum(end - start for name, start, end, _, _ in self.spans if name in names) / 1e9

    def calls(self, name: str) -> int:
        return sum(span[0] == name for span in self.spans)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "run": run_id}) + "\n")


def self_times_ns(spans: list) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _function_stats(spans: list) -> dict[str, dict]:
    selfs = self_times_ns(spans)
    durations: defaultdict[str, list[int]] = defaultdict(list)
    busy: defaultdict[str, int] = defaultdict(int)
    for (name, start, end, _, _), self_ns in zip(spans, selfs):
        durations[name].append(end - start)
        busy[name] += self_ns
    stats = {}
    for name, durs in durations.items():
        us = np.asarray(durs, dtype=np.float64) / 1e3
        stats[name] = {"calls": len(durs), "us_p50": float(np.percentile(us, 50)),
                       "us_p90": float(np.percentile(us, 90)) if len(durs) >= 100 else 0.0,
                       "s": float(us.sum()) / 1e6, "busy_s": busy[name] / 1e9}
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, *, traced_run_s: float, untraced_run_s: float,
                  measured_speedup: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition, as {name: (value, unit)}.

    A function with no calls reports 0 for its timings, and us_p90 is 0
    below 100 calls, where fewer than ten samples would lie beyond it.
    """
    stats = _function_stats(tracer.spans)
    counts = tracer.counts
    empty = {"calls": 0, "us_p50": 0.0, "us_p90": 0.0, "s": 0.0, "busy_s": 0.0}

    def st(name: str) -> dict:
        return stats.get(name, empty)

    out: dict[str, tuple[float, str]] = {}

    def per_call(name: str, p90: bool, busy: bool = True) -> None:
        s = st(name)
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.us_p50"] = (s["us_p50"], "us")
        if p90:
            out[f"{name}.us_p90"] = (s["us_p90"], "us")
        if busy:
            out[f"{name}.busy_s"] = (s["busy_s"], "s")

    # p90 only for functions with at least 100 calls in a full-size repetition
    # of every workload that calls them
    for method in TASK_METHODS:
        per_call(f"tasks.{method}", p90=True)
    per_call("optim.apply_update", p90=True)
    per_call("optim.fast_forward", p90=False)
    for fname in TARGETS["predict"]:
        per_call(f"predict.{fname}", p90=False)

    out["verify.decide.calls"] = (st("verify.decide")["calls"], "count")
    for criterion in CRITERIA:
        out[f"verify.accept_ratio.{criterion}"] = (
            _ratio(counts[f"decide.{criterion}.accepted"], counts[f"decide.{criterion}.attempted"]),
            "ratio")

    out["regime.similarity_at.calls"] = (st("regime.similarity_at")["calls"], "count")
    out["regime.similarity_at.us_p50"] = (st("regime.similarity_at")["us_p50"], "us")
    out["regime.calibrate.s"] = (st("regime.calibrate")["s"], "s")

    for fname, key in (("save_checkpoint", "save_checkpoint.bytes"),
                       ("load_checkpoint", "load_checkpoint.bytes")):
        per_call(f"trajectory.{fname}", p90=True)
        out[f"trajectory.{fname}.bytes"] = (counts[key], "bytes")

    steps = st("optim.apply_update")["calls"]
    self_us_per_step = _ratio(st("engine.train_run")["busy_s"] * 1e6, steps)
    step_us = (st("tasks.batch")["us_p50"] + st("tasks.loss_and_grad")["us_p50"]
               + st("optim.apply_update")["us_p50"] + self_us_per_step) if steps else 0.0
    verify_cost_steps = _ratio(st("tasks.validation_loss")["us_p50"], step_us)
    planned, skipped = counts["train_run.planned"], counts["train_run.skipped"]
    attempts = counts["leap_or_continue.attempts"]
    out["engine.train_run.self_us_per_step"] = (self_us_per_step, "us/step")
    out["engine.speculate.calls"] = (st("engine.speculate")["calls"], "count")
    out["engine.speculate.us_p50"] = (st("engine.speculate")["us_p50"], "us")
    out["engine.leap_or_continue.calls"] = (st("engine.leap_or_continue")["calls"], "count")
    out["engine.leap_or_continue.leaps"] = (counts["leap_or_continue.leaps"], "count")
    out["engine.leap_or_continue.accept_ratio"] = (
        _ratio(counts["leap_or_continue.leaps"], attempts), "ratio")
    out["engine.run_cascade.calls"] = (st("engine.run_cascade")["calls"], "count")
    out["engine.run_cascade.stages"] = (counts["run_cascade.stages"], "count")
    out["engine.verify_cost_steps"] = (verify_cost_steps, "steps")
    out["engine.speedup_model"] = (
        _ratio(planned, planned - skipped + attempts * verify_cost_steps), "ratio")
    out["engine.speedup_measured"] = (measured_speedup, "ratio")

    for fname in TARGETS["harness"]:
        out[f"harness.{fname}.s"] = (st(f"harness.{fname}")["s"], "s")
        out[f"harness.{fname}.self_s"] = (st(f"harness.{fname}")["busy_s"], "s")

    out["trace.overhead_pct"] = (
        100.0 * _ratio(traced_run_s - untraced_run_s, untraced_run_s), "%")
    return out
