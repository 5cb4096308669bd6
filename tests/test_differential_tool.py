"""Smoke test of tools/differential.py: this checkout against itself.

Running one tree twice also checks that the CLI's output is deterministic.
A `timeout (...)` line is a reported status, not a failure.  The CPU times
on each line are parsed and summed, and their totals in the summary checked.
"""

import importlib.util
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("differential", ROOT / "tools" / "differential.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differential_tool_runs_a_tree_against_itself(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    count = 6
    code = _load_tool().main([str(ROOT), str(ROOT), "--count", str(count), "--timeout", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert not any(line.endswith(" differs") for line in lines)
    *per_script, summary = lines
    assert len(per_script) == count
    totals = {"old_cpu": 0.0, "new_cpu": 0.0}
    for line in per_script:
        # name, two exit codes, two CPU times, then the status
        _name, _old, _new, old_cpu, new_cpu, status = line.split(" ", 5)
        assert status in ("same", "differs") or status.startswith("timeout (")
        for field in (old_cpu, new_cpu):
            key, value = field.split("=")
            assert float(value) > 0
            totals[key] += float(value)
    assert summary.startswith(f"{count} scripts in {tmp_path}")
    head, tail = summary.split(": ", 1)
    *_, old_total, new_total = head.split(" ")
    for field in (old_total, new_total):
        key, value = field.split("=")
        assert float(value) == pytest.approx(totals[key], abs=0.001 * (count + 1))
    tallies = tail.split(", ")
    assert sum(int(t.split(" ", 1)[0]) for t in tallies) == count
