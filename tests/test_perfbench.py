"""Smoke tests of the benchmark's tracing: every traced function still
exists in hfs, and the result line a traced run prints last parses as
strict JSON, with every metric finite, and names exactly the per-layer
metrics that BENCHMARK.json declares."""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_trace_targets_exist():
    # in process, so a renamed or removed target fails here, not only in
    # the traced runs below
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod_name, attr, _, name in tracing.TARGETS:
        module = importlib.import_module(mod_name)
        assert callable(getattr(module, attr, None)), (name, mod_name, attr)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()


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
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
