"""Smoke test of the benchmark's traced run: the result line it prints last
must parse as strict JSON, with every metric finite."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject(constant):
    raise ValueError(f"non-finite constant {constant} in the result line")


@pytest.mark.parametrize("workload",
                         ["grid_ndd_off", "grid_ndd_on", "point_checks"])
def test_traced_run_ends_with_a_strict_json_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=_reject)
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
