"""Hard inputs found by `tools/differential.py`, kept as script text.

Each `tests/regressions/<name>.primdec` runs through the CLI in-process and
must print `<name>.expected.json` byte for byte, with every decomposition in
it validated.  The generator behind the differential tool may change, so a
seed and index would not name the same script for long; the text does.
"""

import json
from pathlib import Path

import pytest

from primarydec import groebner
from primarydec.cli import main as cli_main

REGRESSIONS = Path(__file__).parent / "regressions"

# Largest coefficient, in bits, of any remainder a reduction may return while
# one of these scripts runs.  s7_015 reached 52,089 bits when its minimal
# polynomials came from lex-like block-order bases; by normal forms against
# its ring-order basis it stays at 160.  s7_053 stays at 35.
REMAINDER_BITS = 1024


@pytest.mark.parametrize("name", ["s7_015", "s7_053"])
def test_regression_script_prints_its_expected_json(monkeypatch, capsys, name):
    real = groebner._reduce_full
    widest = [0]

    def recording_reduce_full(terms, by_comp):
        s, r = real(terms, by_comp)
        widest[0] = max([widest[0], *(abs(t[3]).bit_length() for t in r)])
        return s, r

    monkeypatch.setattr(groebner, "_reduce_full", recording_reduce_full)
    assert cli_main(["run", str(REGRESSIONS / f"{name}.primdec"), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == (REGRESSIONS / f"{name}.expected.json").read_text()
    assert all(entry["validation"]["ok"] for entry in json.loads(out))
    assert 0 < widest[0] <= REMAINDER_BITS
