import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from primarydec.cli import (
    Command,
    ScriptError,
    main,
    parse_polynomial,
    parse_script,
    render_text,
    run_script,
    tokenize,
)
from primarydec.polyring import (
    MonomialOrder,
    RingContext,
    render_polynomial,
)


def ring_xy():
    return RingContext(("x", "y"), MonomialOrder(kind="degrevlex"))


def test_parse_script_statement_count():
    script = parse_script("ring r=0,(x,y),dp; ideal I=x^2,x*y; primdec I;")
    # declarations bind names while parsing; only the command is a statement
    assert len(script.statements) == 1
    assert isinstance(script.statements[0], Command)
    assert script.statements[0].verb == "primdec"


def test_parse_script_reads_parentheses_nested_to_the_limit():
    nested = "(" * 100 + "x + 1" + ")" * 100
    script = parse_script(f"ring r=0,(x,y),dp; ideal I = {nested}, y - {nested}; minass I;")
    x, y = (script.statements[0].module.ring.variable(i) for i in range(2))
    assert script.statements[0].module.generators == (x + 1, y - x - 1)


def test_parse_rejects_ideal_before_ring():
    with pytest.raises(ScriptError, match="no ring"):
        parse_script("ideal I = x^2;")


def test_parse_rejects_nonzero_characteristic():
    with pytest.raises(ScriptError, match="only characteristic 0 supported"):
        parse_script("ring r=7,(x,y),dp;")


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ScriptError, match="unknown identifier"):
        parse_script("ring r=0,(x,y),dp; primdec I;")


def test_parse_rejects_unknown_variable_with_position():
    with pytest.raises(ScriptError, match=r"line 1, column 30"):
        parse_script("ring r=0,(x,y),dp; ideal I = z;")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ScriptError):
        parse_script("ring r=0,(x,y),dp; ideal I = x y;")


def test_parse_orders():
    parse_script("ring r=0,(x,y),lp; ideal I = x;")
    parse_script("ring r=0,(x,y,z),wp(3,4,5); ideal I = x;")
    with pytest.raises(ScriptError, match="weight count"):
        parse_script("ring r=0,(x,y),wp(3,4,5); ideal I = x;")
    with pytest.raises(ScriptError, match="unknown order"):
        parse_script("ring r=0,(x,y),zz; ideal I = x;")


def test_parse_comments_and_strings():
    script = parse_script(
        "// input transcribed by hand\n"
        "ring r=0,(x,y),dp; ideal I = x; // trailing note\n"
        'validate I, "some file.json";\n'
    )
    cmd = script.statements[-1]
    assert cmd.file_arg == "some file.json"
    bare = parse_script("ring r=0,(x,y),dp; ideal I = x; validate I, out/m1.json;")
    assert bare.statements[-1].file_arg == "out/m1.json"


@pytest.mark.parametrize(
    "name, where",
    [
        ("my file.json", "line 1, column 48"),
        ("my\tfile.json", "line 1, column 48"),
        ("my//note\nfile.json", "line 2, column 1"),
        ("out/m1 .json", "line 1, column 52"),
    ],
    ids=["space", "tab", "comment-and-line-break", "before-a-symbol"],
)
def test_an_unquoted_file_name_with_a_gap_is_an_input_error(tmp_path, capsys, name, where):
    # the tokens of an unquoted name must touch, or the name read would not
    # be the one written
    script = f"ring r=0,(x,y),dp; ideal I = x; validate I, {name};"
    with pytest.raises(ScriptError, match=f"^{where}: a file name with spaces must be quoted$"):
        parse_script(script)
    f = tmp_path / "gap.primdec"
    f.write_text(script + "\n")
    assert main(["run", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: a file name with spaces must be quoted\n"


def test_polynomial_round_trip_fixed():
    R = ring_xy()
    texts = ["x^2 - 2", "x*y + y^2", "-x + 1/2", "5/6*x^2*y - 7*y + 2/3", "0"]
    for t in texts:
        p = parse_polynomial(R, t)
        assert render_polynomial(p) == t or parse_polynomial(
            R, render_polynomial(p)
        ) == p


def test_polynomial_round_trip_random():
    rng = random.Random(13)
    R = ring_xy()
    for _ in range(30):
        p = R.zero()
        for _ in range(rng.randint(1, 5)):
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            p = p + R.monomial((rng.randint(0, 3), rng.randint(0, 3)), c)
        assert parse_polynomial(R, render_polynomial(p)) == p


def test_run_script_primdec_shape():
    script = parse_script("ring r=0,(x,y),dp; ideal I=x^2,x*y; primdec I;")
    results = run_script(script)
    assert len(results) == 1
    obj = results[0]
    assert obj["command"] == "primdec"
    assert obj["input"] == "I"
    assert [c["prime"] for c in obj["components"]] == [["x"], ["y", "x"]]
    assert obj["components"][0]["generators"] == ["x"]
    assert obj["components"][0]["codim"] == 1
    assert obj["components"][0]["embedded"] is False
    assert obj["components"][1]["embedded"] is True
    assert obj["validation"]["ok"] is True
    assert "witness_exponent" not in obj["components"][0]


def test_run_script_hull_minass_localize():
    script = parse_script(
        "ring r=0,(x,y),dp;"
        "ideal I=x^2,x*y; ideal J=x*y; ideal P=x;"
        "hull I; minass J; localize I, P;"
    )
    results = run_script(script)
    assert results[0] == {"command": "hull", "input": "I", "generators": ["x"]}
    assert results[1] == {
        "command": "minass",
        "input": "J",
        "primes": [["x"], ["y"]],
    }
    assert results[2] == {
        "command": "localize",
        "input": "I, P",
        "generators": ["x"],
    }


@pytest.mark.parametrize("prime", ["x*y", "1"])
def test_localize_rejects_a_non_prime_ideal(tmp_path, capsys, prime):
    f = tmp_path / "job.primdec"
    f.write_text(
        f"ring r=0,(x,y),dp; ideal I=x^2,x*y; ideal J={prime}; localize I, J;\n"
    )
    assert main(["run", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "localize expects a prime ideal as second argument" in captured.err


def test_localize_at_the_zero_prime():
    # no associated prime of (x^2, xy) lies inside (0)
    script = parse_script(
        "ring r=0,(x,y),dp; ideal I=x^2,x*y; ideal Z=0; localize I, Z;"
    )
    assert run_script(script)[0]["generators"] == ["1"]


def test_localize_at_a_prime_is_unchanged():
    repo = Path(__file__).resolve().parents[1]
    axes = repo / "tests" / "fixtures" / "axes_localize.primdec"
    expected = json.loads(axes.with_suffix(".expected.json").read_text())
    assert run_script(parse_script(axes.read_text())) == expected
    batch = run_script(parse_script((repo / "demos" / "batch.primdec").read_text()))
    assert batch[-1] == {"command": "localize", "input": "J, P", "generators": ["x"]}


def test_run_script_module_binding():
    script = parse_script(
        "ring r=0,(x,y),dp; module m = [x,0],[0,y]; primdec m;"
    )
    obj = run_script(script)[0]
    assert len(obj["components"]) == 2
    assert obj["validation"]["ok"] is True
    assert all(isinstance(g, list) for c in obj["components"] for g in c["generators"])


def test_run_script_full_and_zero_ideals():
    script = parse_script(
        "ring r=0,(x,y),dp; ideal U=1; ideal Z=0; hull U; primdec U; primdec Z;"
    )
    results = run_script(script)
    assert results[0]["generators"] == ["1"]
    assert results[1]["components"] == []
    assert results[1]["validation"]["ok"] is True
    zero = results[2]["components"]
    assert len(zero) == 1 and zero[0]["generators"] == [] and zero[0]["prime"] == []


def test_main_run_json(tmp_path, capsys):
    f = tmp_path / "job.primdec"
    f.write_text("ring r=0,(x,y),dp; ideal I=x^2,x*y; primdec I;\n")
    code = main(["run", str(f), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["components"][0]["prime"] == ["x"]


def test_main_run_text(tmp_path, capsys):
    wrong = {"components": [{"generators": ["x"], "prime": ["x"]}]}
    (tmp_path / "wrong.json").write_text(json.dumps(wrong))
    f = tmp_path / "job.primdec"
    f.write_text(
        "ring r=0,(x,y),dp; ideal I=x^2,x*y; ideal U=1;\n"
        "primdec I; minass I; primdec U; validate I, wrong.json;\n"
    )
    code = main(["run", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert "component 1: codim 1, isolated" in out
    assert "component 2: codim 2, embedded" in out
    assert "validation: ok" in out
    assert "minass I:\n  prime: x\nprimdec U:\n" in out
    assert "primdec U:\n  no components (input is the full module)\n" in out
    assert out.endswith(
        "validate I, wrong.json:\n"
        "  validation: FAILED (components do not intersect to the input)\n"
    )


@pytest.mark.parametrize(
    "script, expected, message",
    [
        (
            'ring r=0,(x,y),dp; ideal I=x;\nvalidate I, "out.json;',
            None,
            "line 2, column 13: unterminated string",
        ),
        ("ring r=0,(x,y),dp; ideal I = x $ y;", None, "line 1, column 32: unexpected character '$'"),
        ("ring r=0,(x,x),dp;", None, "line 1, column 13: duplicate variable name"),
        ("ring r = 0, (x, y, x), dp;", None, "line 1, column 20: duplicate variable name"),
        ("ring r=0,(x,y),dp; ideal I = 1/0*x;", None, "line 1, column 30: zero denominator"),
        (
            "ring r=0,(x,y),dp; module M=[x,y],[x];",
            None,
            "line 1, column 27: module generators have mixed lengths",
        ),
        ("ring r=0,(x,y),dp; frob I;", None, "line 1, column 20: unknown statement 'frob'"),
        ("; ring r=0,(x,y),dp;", None, "line 1, column 1: expected a statement"),
        (
            "ring r=0,(x,y),dp; ideal I=x; module M=[x,y]; localize I, M;",
            None,
            "line 1, column 59: localize expects an ideal as second argument",
        ),
        # the expected file's generator "x )" goes through parse_polynomial
        (
            "ring r=0,(x,y),dp; ideal I=x; validate I, trailing.json;",
            None,
            "line 1, column 3: trailing input after polynomial",
        ),
        # the validate subcommand runs the script, then reads the expected file
        (
            "ring r=0,(x,y),dp; ideal I=x; minass I;",
            "absent.json",
            "cannot read 'absent.json': ",
        ),
        # integers are ASCII digits only: int() rejects '²' and reads '١' as 1
        ("ring r=0,(x,y),dp; ideal I = ²;", None, "line 1, column 30: unexpected character '²'"),
        ("ring r=0,(x,y),dp; ideal I = x^²;", None, "line 1, column 32: unexpected character '²'"),
        ("ring r=0,(x,y),wp(١, 2);", None, "line 1, column 19: unexpected character '١'"),
        # the 101st of 400 nested parentheses is refused, before the stack runs out
        (
            "ring r=0,(x,y),dp; ideal I = " + "(" * 400 + "x" + ")" * 400 + ";",
            None,
            "line 1, column 130: parentheses nested deeper than 100",
        ),
        # order keys hold degrees below 2^62, for a power and for a product
        (
            "ring r=0,(x,y),dp; ideal I = y + x^4611686018427387904;",
            None,
            "line 1, column 34: a term's degree and component must stay below 2^62"
            " for its order key",
        ),
        (
            "ring r=0,(x,y),dp; ideal I = y + 2*x^2305843009213693952*x^2305843009213693952;",
            None,
            "line 1, column 34: a term's degree and component must stay below 2^62"
            " for its order key",
        ),
    ],
    ids=[
        "unterminated-string",
        "unexpected-character",
        "duplicate-variable",
        "duplicate-variable-of-three",
        "zero-denominator",
        "mixed-lengths",
        "unknown-statement",
        "symbol-first",
        "localize-at-module",
        "trailing-input",
        "unreadable-expected-file",
        "superscript-integer",
        "superscript-exponent",
        "non-ascii-weight",
        "deep-nesting",
        "power-at-key-bound",
        "product-across-key-bound",
    ],
)
def test_main_reports_input_errors(tmp_path, capsys, monkeypatch, script, expected, message):
    monkeypatch.chdir(tmp_path)
    trailing = {"components": [{"generators": ["x )"], "prime": ["x"]}]}
    Path("trailing.json").write_text(json.dumps(trailing))
    Path("bad.primdec").write_text(script + "\n")
    argv = ["run", "bad.primdec"] if expected is None else ["validate", "bad.primdec", expected]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # one line: the message, then for a file the operating system's reason
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    if expected is None:
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "script, message",
    [
        ("ring r = 0, (), dp;", "line 1, column 14: expected an identifier"),
        ("ring r=0,(x,y),dp; ideal I = x^y;", "line 1, column 32: expected an integer"),
        ("ring r=0,(x,y),dp; ideal I = ;", "line 1, column 30: expected a polynomial"),
        (
            "ring r=0,(x,y),dp; ideal I = x; validate I, ;",
            "line 1, column 45: expected a file name",
        ),
        # the end of input after a comment sits where the comment starts
        ("ring r = 0, (x), dp // trailing", "line 1, column 21: expected ';'"),
        ("ring r = 0, (x), dp \t", "line 1, column 22: expected ';'"),
    ],
    ids=[
        "no-variables",
        "name-as-exponent",
        "empty-ideal",
        "no-file-name",
        "end-after-comment",
        "end-after-blanks",
    ],
)
def test_parse_errors_keep_their_positions(script, message):
    with pytest.raises(ScriptError) as info:
        parse_script(script)
    assert str(info.value) == message


def test_render_text_of_module_generators_and_of_no_primes():
    script = parse_script(
        "ring r=0,(x,y),dp; module M = [x, y], [y, x]; hull M; ideal U = 1; minass U;"
    )
    assert render_text(run_script(script)) == (
        "hull M:\n"
        "  generators: [0, x^2 - y^2], [y, x], [x, y]\n"
        "minass U:\n"
        "  no associated primes (input is the full module)\n"
    )


def test_token_positions_point_at_their_text():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pieces = ["x", "y", "Z", "_", "0", "7", "\u00b2", *"=,;()[]+-*^/.", " ", "\t", "\n", "//", '"']

    @hypothesis.settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @hypothesis.given(st.lists(st.sampled_from(pieces), max_size=30).map("".join))
    def check(source):
        lines = source.split("\n")
        try:
            tokens = tokenize(source)
        except ScriptError as exc:
            line, col, message = re.fullmatch(r"line (\d+), column (\d+): (.*)", str(exc)).groups()
            ch = lines[int(line) - 1][int(col) - 1]
            assert message == ("unterminated string" if ch == '"' else f"unexpected character {ch!r}")
            # everything before the offending character reads as tokens
            offset = sum(len(t) + 1 for t in lines[: int(line) - 1]) + int(col) - 1
            tokenize(source[:offset])
            return
        *tokens, end = tokens
        last = 0  # where the last token on the last line ends
        for t in tokens:
            written = f'"{t.text}"' if t.kind == "string" else t.text
            assert lines[t.line - 1][t.col - 1 :].startswith(written)
            if t.line == len(lines):
                last = t.col - 1 + len(written)
        # past the last token only blanks and a comment remain; the end of
        # input sits where that comment starts, or else past the last line
        tail = lines[-1][last:]
        comment = tail.find("//")
        assert (end.kind, end.line) == ("end", len(lines))
        assert end.col == last + (comment if comment >= 0 else len(tail)) + 1

    check()


def test_main_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.primdec"
    f.write_text("ring r=7,(x,y),dp;\n")
    code = main(["run", str(f)])
    err = capsys.readouterr().err
    assert code == 1
    assert "characteristic 0" in err


def test_main_missing_file_exit_code(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.primdec")])
    assert code == 1


def test_main_bound_exhaustion_exit_code(tmp_path, capsys):
    f = tmp_path / "job.primdec"
    f.write_text("ring r=0,(x,y),dp; ideal I=x^2,x*y; primdec I;\n")
    # the embedded component at (x, y) needs the exponent 2
    code = main(["run", str(f), "--bound", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "computation failed" in err


def test_main_reports_a_computed_term_beyond_the_key_bound(tmp_path, capsys):
    # the lex S-pair of the two generators multiplies z^(2^61) by z^(2^61)
    f = tmp_path / "job.primdec"
    half = 2**61
    f.write_text(f"ring r=0,(x,y,z),lp; ideal I=x*y-z^{half},x*z^{half}-1; minass I;\n")
    code = main(["run", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "computation failed: a term's degree and component must stay below 2^62"
        " for its order key\n"
    )


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_main_bound_below_one_is_an_input_error(tmp_path, capsys, bound):
    f = tmp_path / "job.primdec"
    f.write_text("ring r=0,(x,y),dp; ideal I=x^2,x*y; primdec I;\n")
    code = main(["run", str(f), f"--bound={bound}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"--bound must be at least 1, got {bound}" in captured.err


def test_main_bad_seed_env(tmp_path, capsys, monkeypatch):
    # the CLI always runs seed 0 and reads no environment variable
    f = tmp_path / "job.primdec"
    f.write_text("ring r=0,(x,y),dp; ideal I=x^2,x*y; primdec I; minass I;\n")
    assert main(["run", str(f), "--json"]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("PRIMDEC_SEED", "frog")
    assert main(["run", str(f), "--json"]) == 0
    assert capsys.readouterr().out == plain


def test_main_determinism(tmp_path, capsys):
    f = tmp_path / "job.primdec"
    f.write_text(
        "ring r=0,(x,y,z),dp; ideal I=x^2*y,x*z^2,y^2*z; primdec I; minass I;\n"
    )
    assert main(["run", str(f), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["run", str(f), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_in_script_validate(tmp_path, capsys):
    f = tmp_path / "job.primdec"
    f.write_text("ring r=0,(x,y),dp; ideal I=x^2,x*y; primdec I;\n")
    assert main(["run", str(f), "--json"]) == 0
    out = capsys.readouterr().out
    (tmp_path / "expected.json").write_text(out)
    g = tmp_path / "check.primdec"
    g.write_text(
        "ring r=0,(x,y),dp; ideal I=x^2,x*y; validate I, expected.json;\n"
    )
    assert main(["run", str(g), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["command"] == "validate"
    assert doc[0]["validation"]["ok"] is True


def test_in_script_validate_reads_multi_command_output(tmp_path, capsys):
    # embedded_line's expected file holds primdec, hull and minass results;
    # only the primdec object carries components
    fixture = Path(__file__).resolve().parent / "fixtures" / "embedded_line.expected.json"
    g = tmp_path / "check.primdec"
    g.write_text(f'ring r=0,(x,y),dp; ideal I=x^2,x*y; validate I, "{fixture}";\n')
    assert main(["run", str(g), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["validation"]["ok"] is True


def test_in_script_validate_rejects_bad_components(tmp_path, capsys):
    bad = [
        {
            "command": "primdec",
            "input": "I",
            "components": [
                {"generators": ["x"], "prime": ["x"], "codim": 1, "embedded": False}
            ],
            "validation": {},
        }
    ]
    (tmp_path / "expected.json").write_text(json.dumps(bad))
    g = tmp_path / "check.primdec"
    g.write_text(
        "ring r=0,(x,y),dp; ideal I=x^2,x*y; validate I, expected.json;\n"
    )
    assert main(["run", str(g), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["validation"]["ok"] is False
    assert doc[0]["validation"]["intersection"] is False


def test_main_rejects_zero_weight(tmp_path, capsys):
    f = tmp_path / "job.primdec"
    f.write_text("ring r = 0, (x, y),\n  wp(0, 1);\nideal I = x;\nhull I;\n")
    code = main(["run", str(f)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: line 2, column 6: weights must be positive\n"


@pytest.mark.parametrize(
    "binding, entry",
    [
        ("ideal I=x^2,x*y;", {"generators": 5, "prime": ["x"]}),
        ("ideal I=x^2,x*y;", {"generators": [3], "prime": ["x"]}),
        ("ideal I=x^2,x*y;", {"generators": [["x"]], "prime": ["x"]}),
        ("ideal I=x^2,x*y;", {"generators": ["x"], "prime": "xy"}),
        # a generator of a rank-2 module must be a list of two strings
        ("module I=[x,0],[0,y];", {"generators": ["xy"], "prime": ["x"]}),
    ],
    ids=["generators-int", "generator-int", "generator-list", "prime-str", "module-str"],
)
def test_in_script_validate_rejects_malformed_json(tmp_path, capsys, binding, entry):
    (tmp_path / "expected.json").write_text(json.dumps({"components": [entry]}))
    g = tmp_path / "check.primdec"
    g.write_text(f"ring r=0,(x,y),dp; {binding} validate I, expected.json;\n")
    assert main(["run", str(g), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "binding, content, message",
    [
        (
            "ideal I=x;",
            [{"components": []}, {"components": []}],
            "expected output holds more than one command",
        ),
        ("ideal I=x;", {"primes": [["x"]]}, "expected output carries no component list"),
        ("ideal I=x;", {"components": ["x"]}, "component entries must be objects"),
        (
            "ideal I=x;",
            {"components": [{"generators": ["x"]}]},
            "component entries need generators and prime",
        ),
        (
            "module I=[x,0],[0,y];",
            {"components": [{"generators": [["x"]], "prime": ["x"]}]},
            "component generator has wrong length",
        ),
        ("ideal I=x;", None, "cannot read 'expected.json': "),
        ("ideal I=x;", "{", "cannot parse 'expected.json': Expecting property name"),
        (
            "ideal I=x;",
            "[" * 200000 + "]" * 200000,
            "cannot parse 'expected.json': maximum recursion depth exceeded",
        ),
    ],
    ids=[
        "two-commands",
        "no-component-list",
        "entry-not-object",
        "entry-without-prime",
        "generator-wrong-length",
        "missing-file",
        "not-json",
        "deeply-nested",
    ],
)
def test_in_script_validate_reports_bad_files(tmp_path, capsys, binding, content, message):
    if isinstance(content, str):
        (tmp_path / "expected.json").write_text(content)
    elif content is not None:
        (tmp_path / "expected.json").write_text(json.dumps(content))
    g = tmp_path / "check.primdec"
    g.write_text(f"ring r=0,(x,y),dp; {binding} validate I, expected.json;\n")
    assert main(["run", str(g), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, undecodable",
    [
        (["run", "job.primdec"], "job.primdec"),
        (["run", "job.primdec"], "in.json"),
        (["validate", "job.primdec", "out.json"], "out.json"),
    ],
    ids=["script", "validate-file", "expected-file"],
)
def test_main_reports_files_that_are_not_utf8(tmp_path, capsys, monkeypatch, argv, undecodable):
    # files are read as UTF-8 whatever the locale, and 0xff starts no UTF-8 sequence
    monkeypatch.chdir(tmp_path)
    Path("job.primdec").write_text("ring r=0,(x,y),dp; ideal I=x; validate I, in.json;\n")
    Path("in.json").write_text(json.dumps({"components": [{"generators": ["x"], "prime": ["x"]}]}))
    Path("out.json").write_text("[]")
    with open(undecodable, "ab") as fh:
        fh.write(b"\xff")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: cannot read '{undecodable}': 'utf-8' codec can't decode byte 0xff"
    )
    assert captured.err.count("\n") == 1


def test_main_validate_subcommand(tmp_path, capsys):
    f = tmp_path / "job.primdec"
    f.write_text("ring r=0,(x,y),dp; ideal I=x*y; minass I;\n")
    assert main(["run", str(f), "--json"]) == 0
    out = capsys.readouterr().out
    exp = tmp_path / "expected.json"
    exp.write_text(out)
    assert main(["validate", str(f), str(exp)]) == 0
    assert capsys.readouterr().out == "ok\n"
    exp.write_text(out.replace('"x"', '"y"', 1))
    assert main(["validate", str(f), str(exp)]) == 2
    assert "differs" in capsys.readouterr().err


def test_main_usage_error(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


def test_console_script_installed(tmp_path):
    # Build the `primarydec` script from this checkout's declared entry point,
    # the way an installer writes it, rather than trusting whatever is on PATH.
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    ep = EntryPoint("primarydec", scripts["primarydec"], "console_scripts")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    wrapper = bindir / "primarydec"
    wrapper.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        f"sys.exit({ep.attr}())\n"
    )
    wrapper.chmod(0o755)
    exe = shutil.which("primarydec", path=str(bindir))
    assert exe is not None
    f = tmp_path / "job.primdec"
    f.write_text("ring r=0,(x,y),dp; ideal I=x^2,x*y; hull I;\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [exe, "run", str(f), "--json"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["generators"] == ["x"]


def test_python_dash_m_runs_fixture():
    tests = Path(__file__).resolve().parent
    fixture = tests / "fixtures" / "embedded_line.primdec"
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "primarydec", "run", str(fixture), "--json"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == fixture.with_suffix(".expected.json").read_bytes()
    assert proc.stderr == b""
