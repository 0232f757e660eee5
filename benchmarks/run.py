"""leapverify benchmark: one workload, one seed, one measured run.

    python3 benchmarks/run.py --workload offline-mlp --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else. ``setup_s`` is the median import time over
several fresh interpreters plus the median of several set-ups. The run then
warms up, repeats the timed phase until ``--seconds`` have passed and at
least three repetitions are done, and reports medians over repetitions;
``run_s`` is the median wall time of one repetition. Times are scaled to one
machine speed by a reference kernel (see ``Speed``). With ``--trace 1`` one
more repetition runs under the span tracer and the per-layer metrics are
printed instead of the end-to-end ones. Correctness checks run in every run.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A human-readable table,
machine information and digests come before it, and the full record is
written to ``.bench_out/results/`` (spans of a traced run next to it).
Load is a closed loop: one process, one repetition at a time, and one BLAS
thread.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 9
# reference_kernel() at the faster of the two speeds of the machine the bounds
# were set on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4 with OpenBLAS 0.3,
# one BLAS thread)
REFERENCE_S = 0.0125

# the ten end-to-end quantities; only those defined on every workload
# are bounded metrics in BENCHMARK.json, the rest are reported alongside
REPORTED = (
    ("setup_s", "s"), ("run_s", "s"), ("train_steps_per_s", "steps/s"),
    ("replay_evals_per_s", "evals/s"), ("live_speedup", "ratio"),
    ("live_skip_frac", "ratio"), ("final_loss_delta_pct", "%"), ("disk_mb", "MB"),
    ("peak_rss_mb", "MB"), ("failed_frac", "ratio"),
)


def pin_blas_threads() -> int:
    """Run BLAS on one thread; must run before numpy loads. Returns nproc.

    With two threads a small matmul waits on both vCPUs, whose speeds vary
    partly apart on a shared VM, and run times spread wider. With one
    thread a run's times follow the speed of the CPU it runs on, which the
    reference kernel samples. OpenBLAS and OpenMP variables are set alike.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_info() -> dict:
    import ctypes

    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    info["thread_env"] = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    return info


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(ncpu: int) -> dict:
    import numpy as np

    return {"nproc": ncpu, "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "platform": platform.platform(), "commit": git_commit()}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import leapverify.cli; print(time.perf_counter() - t)")


def import_seconds(n: int) -> list[float]:
    """Import time of leapverify in n fresh interpreters, one after another."""
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(n)]


def reference_kernel() -> float:
    """Seconds for a fixed loop of small numpy calls and interpreter work.

    It uses nothing of leapverify, so its time follows only the machine's
    current speed, which on a shared VM switches between modes about 1.6x
    apart for seconds to minutes at a time.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, x = rng.standard_normal((64, 64)), rng.standard_normal((64, 32))
    start = time.perf_counter()
    for _ in range(1000):
        y = np.tanh(a @ x)
        {j: float(y[j, 0]) for j in range(16)}
    return time.perf_counter() - start


class Speed:
    """Reference-kernel samples taken around and between measurements.

    The runner samples before and after every set-up and repetition, and the
    phase tracer samples after each outermost pass inside them. The scale of
    a measurement is REFERENCE_S over the mean of the samples from the one
    just before it to the one just after it: below 1 while the machine runs
    slower than the speed the bounds were set at. Times are multiplied by it.
    `clock` stops while a sample is taken, so no measurement includes one.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(statistics.median(reference_kernel() for _ in range(3)))
        self.paused += time.perf_counter() - start

    def around(self, fn, *args):
        """(fn(*args), seconds on `clock`, scale)."""
        if not self.samples:
            self.sample()
        first = len(self.samples) - 1
        start = self.clock()
        result = fn(*args)
        elapsed = self.clock() - start
        self.sample()
        return result, elapsed, REFERENCE_S / statistics.mean(self.samples[first:])


def under(ctx, tracer, fn, *args):
    """fn(*args) with tracer active and visible to the workload's run marks."""
    with tracer:
        ctx.tracer = tracer
        try:
            return fn(*args)
        finally:
            ctx.tracer = None


def phases(tracer, cfg, scale: float) -> dict:
    """Training and replay time (scaled) and work of one set-up or repetition."""
    calibrations = tracer.calls("harness.calibrate_thresholds")
    return {
        "train_s": scale * tracer.total_s("harness.calibrate_thresholds",
                                          "harness.pass1_train"),
        "train_steps": cfg.steps * (calibrations * len(cfg.calibration_seeds)
                                    + tracer.calls("harness.pass1_train")),
        "replay_s": scale * tracer.total_s("harness.pass2_ksweep", "harness.pass3_cascades"),
        "evals": tracer.counts["replay.evals"],
        "planned": tracer.counts["train_run.planned"],
        "skipped": tracer.counts["train_run.skipped"],
    }


def measure(args: argparse.Namespace, import_s: float, ncpu: int) -> tuple[dict, int]:
    import tracer as T
    import workloads as W

    size = W.SMOKE if args.smoke else W.FULL
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = W.Ctx(workload=args.workload, seed=args.seed, size=size, work=work,
                ops=W.Ops(args.workload))
    workload = W.WORKLOADS[args.workload](ctx)
    cfg = workload.cfg

    speed = Speed()
    ctx.clock = speed.clock
    subprocess_imports, _, import_scale = speed.around(import_seconds, IMPORT_SAMPLES - 1)
    imports = [t * import_scale for t in [import_s] + subprocess_imports]
    setups, setup_phases = [], []
    for _ in range(workload.setups):
        tracer = T.Tracer(T.PHASES, task_methods=False, on_top=speed.sample)
        _, wall, scale = speed.around(under, ctx, tracer, workload.setup)
        setups.append(wall * scale)
        setup_phases.append(phases(tracer, cfg, scale))
    W.warm_up(workload.task, cfg, size.warmup_s)

    reps: list = []
    rep_phases: list[dict] = []
    start = time.perf_counter()
    while True:
        tracer = T.Tracer(T.PHASES, task_methods=False, on_top=speed.sample)
        rep, _, scale = speed.around(under, ctx, tracer, workload.rep, len(reps))
        reps.append(rep)
        rep_phases.append(phases(tracer, cfg, scale) | {"scale": scale})
        elapsed = time.perf_counter() - start
        typical = _median([r.wall_s for r in reps])
        if len(reps) >= size.min_reps and elapsed + typical > args.seconds:
            break

    traced = tr = None
    if args.trace:
        tr = T.Tracer()
        traced, _, traced_scale = speed.around(under, ctx, tr, workload.rep, len(reps))

    facts = workload.checks(reps)
    digests = {r.digest for r in reps + ([traced] if traced else [])}
    ctx.ops.check("check-repeat", None, len(digests) == 1,
                  detail=f"repetitions disagree: {len(digests)} distinct output digests")

    run_s = _median([r.wall_s * p["scale"] for r, p in zip(reps, rep_phases)])
    wall_s = _median([r.wall_s for r in reps])
    # replay-dense trains only in set-up, so its training rate comes from there
    trainer = rep_phases if rep_phases[0]["train_s"] > 0 else setup_phases
    first = rep_phases[0]
    failed = len(ctx.ops.failures)
    reported = {
        "setup_s": _median(imports) + _median(setups),
        "run_s": run_s,
        "train_steps_per_s": _median([p["train_steps"] / p["train_s"]
                                      for p in trainer if p["train_s"] > 0]),
        "replay_evals_per_s": _median([p["evals"] / p["replay_s"]
                                       for p in rep_phases if p["replay_s"] > 0]),
        "live_speedup": _median([r.plain_s / r.live_s for r in reps if r.live_s > 0]),
        "live_skip_frac": first["skipped"] / first["planned"] if first["planned"] else 0.0,
        "final_loss_delta_pct": facts.get("final_loss_delta_pct", 0.0),
        "disk_mb": reps[-1].disk_bytes / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "failed_frac": failed / ctx.ops.attempted,
    }
    applies = {
        "replay_evals_per_s": first["replay_s"] > 0,
        "live_speedup": reps[0].live_s > 0,
        "live_skip_frac": first["planned"] > 0,
        "final_loss_delta_pct": "final_loss_delta_pct" in facts,
    }
    bases = {
        "live_skip_frac": f"{first['skipped']} skipped of {first['planned']} planned steps",
        "failed_frac": f"{failed} failed of {ctx.ops.attempted} ops",
        "run_s": (f"median of {len(reps)} repetitions, scaled; unscaled {wall_s:.4g} s,"
                  f" median scale {_median([p['scale'] for p in rep_phases]):.3f}"),
        "setup_s": (f"median of {len(imports)} imports {_median(imports):.3f} s"
                    f" + median of {len(setups)} set-ups"),
        "replay_evals_per_s": f"{first['evals']} evals per repetition",
        "train_steps_per_s": (f"{trainer[0]['train_steps']} steps per "
                              + ("repetition" if trainer is rep_phases else "set-up")),
        "live_speedup": "median over repetitions of plain wall / live wall",
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "seeds": {"run": list(cfg.seeds), "calibration": list(cfg.calibration_seeds)},
        "machine": machine_info(ncpu),
        "reported": {name: {"value": reported[name], "unit": unit,
                            "applies": applies.get(name, True), "base": bases.get(name)}
                     for name, unit in REPORTED},
        "digests": {k: v for k, v in facts.items() if k.endswith("sha256")},
        "facts": facts,
        "reference_s": {"nominal": REFERENCE_S, "samples": speed.samples},
        "imports_s": imports,
        "setups": [dict(scaled_s=s, **p) for s, p in zip(setups, setup_phases)],
        "reps": [dict(wall_s=r.wall_s, plain_s=r.plain_s, live_s=r.live_s,
                      disk_bytes=r.disk_bytes, **p) for r, p in zip(reps, rep_phases)],
        "attempted": ctx.ops.attempted, "failed": failed, "failures": ctx.ops.failures,
    }
    if traced is not None:
        record["traced_run_s"] = traced.wall_s
        record["per_layer"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in T.layer_metrics(
                tr, traced_run_s=traced.wall_s * traced_scale, untraced_run_s=run_s,
                measured_speedup=reported["live_speedup"]).items()}
        spans_path = OUT / "results" / f"{args.workload}-seed{args.seed}-spans.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tr.write_jsonl(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    shutil.rmtree(work, ignore_errors=True)
    return record, failed


def print_record(record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"run seeds {record['seeds']['run']}  calibration seeds {record['seeds']['calibration']}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas'].get('name')} {m['blas'].get('version')} "
          f"blas_threads={m['blas'].get('threads')} commit={m['commit']}")
    print(f"repetitions: {len(record['reps'])}  wall s: "
          + " ".join(f"{r['wall_s']:.3f}" for r in record["reps"]))
    for name, item in record["reported"].items():
        shown = f"{item['value']:.6g}" if item["applies"] else "n/a on this workload"
        base = f"  ({item['base']})" if item["base"] and item["applies"] else ""
        print(f"  {name:22s} {shown:>22s} {item['unit']}{base}")
    for name, value in record["digests"].items():
        print(f"  {name} {value}")
    for name, item in record.get("per_layer", {}).items():
        print(f"  {name:44s} {item['value']:.6g} {item['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED pass={failure['pass']} seed={failure['seed']} step={failure['step']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("offline-mlp", "replay-dense", "live-char"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "leapverify" / "__init__.py").is_file():
        print(f"error: no leapverify sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    ncpu = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    package = importlib.import_module("leapverify")
    importlib.import_module("leapverify.cli")
    import_s = time.perf_counter() - start
    if Path(package.__file__).resolve().parent != SRC / "leapverify":
        print(f"error: leapverify imported from {package.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record, failed = measure(args, import_s, ncpu)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = record["per_layer"] if args.trace else record["reported"]
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": source[m["name"]]["unit"]}
               for m in wanted}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print_record(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": record["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
