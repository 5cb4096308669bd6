"""Smoke test of tools/differential.py: this checkout against itself.

Running one tree twice also checks that the CLI's output is deterministic.
A `timeout (...)` line is a reported status, not a failure.
"""

import importlib.util
import tempfile
from pathlib import Path

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
    assert summary.startswith(f"{count} scripts in {tmp_path}")
    tallies = summary.split(": ", 1)[1].split(", ")
    assert sum(int(t.split(" ", 1)[0]) for t in tallies) == count
