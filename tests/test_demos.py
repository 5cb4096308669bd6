"""Smoke tests: the shipped demos run against this checkout's library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT
    )


@pytest.mark.parametrize("demo", ["module_decomposition.py", "embedded_components.py"])
def test_python_demo_runs(demo):
    proc = run([str(DEMOS / demo)])
    assert proc.returncode == 0, proc.stderr
    assert "validator: ok" in proc.stdout


def test_batch_demo_runs():
    proc = run(["-m", "primarydec", "run", str(DEMOS / "batch.primdec"), "--json"])
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert [r["command"] for r in results] == ["primdec", "minass", "hull", "localize"]
    assert results[0]["validation"]["ok"] is True
