"""Smoke test of the example scripts under ``demos/``: each runs to the end
against the package in ``src`` and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["population_transfer.py",
                                  "raman_identities.py", "slow_fast_light.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
