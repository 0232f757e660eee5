"""Smoke run of every benchmark workload at its smallest size.

The benchmark drives the package only through the names it imports (the CLI
entry point, `cli.THRESHOLDS_FILE`, the harness helpers it calls), so a
renamed or removed name shows up here as a failed operation. With `--trace 1`
its tracer also looks up, by name, every function and Task method it wraps;
the traced replay run checks those names still resolve.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_smoke(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "1", "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True


@pytest.mark.parametrize("workload", ["offline-mlp", "replay-dense", "live-char"])
def test_benchmark_workload_smoke(workload):
    run_smoke(workload, trace=0)


def test_traced_replay_smoke():
    run_smoke("replay-dense", trace=1)
