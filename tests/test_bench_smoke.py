"""Smoke run of every benchmark workload at its smallest size.

The benchmark drives the package only through the names it imports (the CLI
entry point, `cli.THRESHOLDS_FILE`, the harness helpers it calls), so a
renamed or removed name shows up here as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["offline-mlp", "replay-dense", "live-char"])
def test_benchmark_workload_smoke(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "1", "--smoke", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
