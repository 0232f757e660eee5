"""Smoke-size self-test of the benchmark.

    python3 benchmarks/selftest.py

Runs every workload at smoke size, untraced and traced, twice each, and
checks that:

* the result line has exactly its four keys, every metric named in
  BENCHMARK.json is printed with its unit, and end-to-end values are > 0;
* the correctness checks pass (``correct`` true, ``failed`` 0);
* traced self times, recomputed from the span file, are non-negative and sum
  to no more than the traced repetition's run_s;
* the traced counts follow the predicted layer split: no ``loss_and_grad``
  or ``apply_update`` call in replay-dense's timed phase, and
  ``fast_forward`` calls equal to the leap count (0 off live-char);
* live_skip_frac, disk_mb, final_loss_delta_pct and every ``.calls`` repeat
  exactly from run to run;
* offline-mlp's report.txt, from ``leapverify run-all`` run in the
  benchmark's process, is the one a separate ``leapverify run-all`` process
  writes for the same config;
* benchmarks/predictions.json covers every workload and per-layer metric.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEED = 42
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def expect(ok: bool, message: str) -> None:
    if not ok:
        fail(message)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    expect(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".bench_out" / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(record_path.read_text())


def check_result(workload: str, trace: int, result: dict) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0,
           f"{workload} trace={trace}: correctness checks failed")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{workload}: attempted {result['attempted']!r}")
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    expect(set(result["metrics"]) == {m["name"] for m in wanted},
           f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{workload}: {m['name']} unit {got['unit']!r}")
        expect(isinstance(got["value"], (int, float)), f"{workload}: {m['name']} not a number")
        if not trace:
            expect(got["value"] > 0, f"{workload}: end-to-end {m['name']} is {got['value']}")


def check_self_times(workload: str, record: dict) -> None:
    spans = []
    with open(ROOT / record["spans_file"]) as fh:
        for line in fh:
            s = json.loads(line)
            spans.append((s["start_ns"], s["end_ns"], s["parent"]))
    child_ns = [0] * len(spans)
    for start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    selfs = [end - start - child_ns[i] for i, (start, end, _) in enumerate(spans)]
    expect(spans and min(selfs) >= 0, f"{workload}: negative self time")
    expect(sum(selfs) / 1e9 <= record["traced_run_s"],
           f"{workload}: self times {sum(selfs) / 1e9} s exceed run_s {record['traced_run_s']} s")


def check_layer_split(workload: str, layer: dict) -> None:
    value = {name: item["value"] for name, item in layer.items()}
    leaps = value["engine.leap_or_continue.leaps"]
    expect(value["optim.fast_forward.calls"] == leaps,
           f"{workload}: fast_forward calls {value['optim.fast_forward.calls']} != leaps {leaps}")
    if workload != "live-char":
        expect(leaps == 0, f"{workload}: {leaps} leaps on an offline workload")
    if workload == "replay-dense":
        expect(value["tasks.loss_and_grad.calls"] == 0 and value["optim.apply_update.calls"] == 0,
               "replay-dense trains inside its timed phase")


def check_run_all_report(record: dict) -> None:
    """The benchmark's offline-mlp report equals ``leapverify run-all``'s."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as W

    out = ROOT / ".bench_out" / "selftest-run-all"
    out.mkdir(parents=True, exist_ok=True)
    ctx = W.Ctx(workload="offline-mlp", seed=SEED, size=W.SMOKE, work=out, ops=W.Ops("selftest"))
    config = W.OfflineMlp(ctx).config
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "leapverify", "run-all", "--config", str(config),
                           "--out", str(out / "out"), "--force"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    expect(proc.returncode == 0, f"leapverify run-all failed:\n{proc.stderr}")
    digest = hashlib.sha256((out / "out" / "report.txt").read_bytes()).hexdigest()
    expect(digest == record["digests"]["report_txt_sha256"],
           "offline-mlp report.txt differs from leapverify run-all's")


def check_predictions() -> None:
    pred = json.loads((HERE / "predictions.json").read_text())
    expect(set(pred["workloads"]) == set(WORKLOADS), "predictions.json workloads differ")
    expect({m["name"] for m in BENCH["end_to_end"]} <= set(pred["end_to_end"]),
           "predictions.json misses an end-to-end metric")
    feeds = pred["per_layer_feeds"]
    for m in BENCH["per_layer"]:
        parts = m["name"].split(".")
        expect(any(".".join(parts[:n]) in feeds for n in range(1, len(parts) + 1)),
               f"predictions.json says nothing about {m['name']}")


def main() -> int:
    check_predictions()
    for workload in WORKLOADS:
        seen = {}
        for trace in (0, 1):
            for attempt in range(2):
                result, record = run(workload, trace)
                check_result(workload, trace, result)
                if trace:
                    check_self_times(workload, record)
                    check_layer_split(workload, record["per_layer"])
                    counts = {k: v["value"] for k, v in record["per_layer"].items()
                              if k.endswith((".calls", ".leaps", ".stages", ".bytes"))}
                else:
                    counts = {k: record["reported"][k]["value"]
                              for k in ("live_skip_frac", "disk_mb", "final_loss_delta_pct")}
                    counts["digests"] = record["digests"]
                    if workload == "offline-mlp" and attempt == 0:
                        check_run_all_report(record)
                if trace in seen:
                    expect(counts == seen[trace], f"{workload} trace={trace}: counts differ "
                                                  f"between two runs of the same seed")
                seen[trace] = counts
        print(f"selftest {workload}: ok")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
