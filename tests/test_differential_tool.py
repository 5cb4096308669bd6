"""Smoke test of tools/differential.py: this checkout against itself.

Running one tree twice also checks that the CLI's output is deterministic.
A `timeout (...)` line is a reported status, not a failure.  The CPU times
on each line are parsed and summed, and their totals in the summary checked.
"""

import importlib.util
import random
import re
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


def test_only_runs_the_named_scripts_with_their_full_run_text(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    tool = _load_tool()
    args = [str(ROOT), str(ROOT), "--count", "6", "--seed", "7", "--timeout", "5"]
    assert tool.main([*args, "--only", "s004,s001"]) == 0
    *per_script, summary = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in per_script] == ["s004.primdec", "s001.primdec"]
    assert summary.startswith("2 scripts in ")
    (out,) = tmp_path.iterdir()
    assert sorted(p.name for p in out.iterdir()) == ["s001.primdec", "s004.primdec"]
    rng = random.Random(7)
    drawn = [tool.random_script(rng) for _ in range(6)]
    assert (out / "s001.primdec").read_text() == drawn[1]
    assert (out / "s004.primdec").read_text() == drawn[4]
    with pytest.raises(SystemExit) as exc:
        tool.main([*args, "--only", "s006"])
    assert exc.value.code == 2
    assert "s006" in capsys.readouterr().err



@pytest.mark.parametrize(
    "order, ring_orders",
    [("lp", {2: "lp", 3: "lp"}), ("wp", {2: "wp(3, 1)", 3: "wp(3, 1, 2)"})],
)
def test_order_rewrites_only_the_ring_line(monkeypatch, tmp_path, capsys, order, ring_orders):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    tool = _load_tool()
    args = [str(ROOT), str(ROOT), "--count", "6", "--seed", "7", "--timeout", "5"]
    assert tool.main([*args, "--order", order, "--only", "s001,s004"]) == 0
    *per_script, _summary = capsys.readouterr().out.splitlines()
    assert len(per_script) == 2 and all(line.endswith(" same") for line in per_script)
    (out,) = tmp_path.iterdir()
    rng = random.Random(7)
    drawn = [tool.random_script(rng) for _ in range(6)]
    # the default is dp: an explicit dp draws the same scripts
    rng = random.Random(7)
    assert [tool.random_script(rng, "dp") for _ in range(6)] == drawn
    for k in (1, 4):
        ring, *rest = (out / f"s{k:03d}.primdec").read_text().splitlines()
        dp_ring, *dp_rest = drawn[k].splitlines()
        assert rest == dp_rest
        n = dp_ring.count(",") - 1  # "ring r = 0, (x, y), dp;" names 2 variables
        assert ring == dp_ring.replace(", dp;", f", {ring_orders[n]};")


def test_command_minass_changes_only_the_verb_of_ideal_scripts(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    tool = _load_tool()
    args = [str(ROOT), str(ROOT), "--count", "6", "--seed", "7", "--timeout", "5"]
    assert tool.main([*args, "--command", "minass", "--only", "s001,s003"]) == 0
    *per_script, _summary = capsys.readouterr().out.splitlines()
    assert len(per_script) == 2 and all(line.endswith(" same") for line in per_script)
    (out,) = tmp_path.iterdir()
    rng = random.Random(7)
    drawn = [tool.random_script(rng) for _ in range(6)]
    # the default is primdec: an explicit primdec draws the same scripts
    rng = random.Random(7)
    assert [tool.random_script(rng, "dp", "primdec") for _ in range(6)] == drawn
    # s001 is a module script, left as drawn; s003 an ideal script
    assert (out / "s001.primdec").read_text() == drawn[1]
    assert "\nmodule m = " in drawn[1]
    *body, verb = (out / "s003.primdec").read_text().splitlines()
    *dp_body, dp_verb = drawn[3].splitlines()
    assert (body, verb, dp_verb) == (dp_body, "minass I;", "primdec I;")


@pytest.mark.parametrize("shape", ["default", "points", "monomial"])
def test_shape_draws_its_own_scripts_and_default_keeps_the_old_ones(
    monkeypatch, tmp_path, capsys, shape
):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    tool = _load_tool()
    args = [str(ROOT), str(ROOT), "--count", "6", "--seed", "7", "--timeout", "5"]
    assert tool.main([*args, "--shape", shape, "--only", "s001,s004"]) == 0
    *per_script, _summary = capsys.readouterr().out.splitlines()
    assert len(per_script) == 2 and all(line.endswith(" same") for line in per_script)
    (out,) = tmp_path.iterdir()
    rng = random.Random(7)
    drawn = [tool.random_script(rng) for _ in range(6)]
    if shape == "points":
        rng = random.Random(7)
        drawn = [tool.points_script(rng) for _ in range(6)]
        assert all(text.split("\n")[1].startswith("ideal I = (x ") for text in drawn)
    if shape == "monomial":
        # the same seed draws the same text; every generator is one monomial
        rng = random.Random(7)
        drawn = [tool.monomial_script(rng) for _ in range(6)]
        rng = random.Random(7)
        assert [tool.monomial_script(rng, "dp", "primdec") for _ in range(6)] == drawn
        for text in drawn:
            body = text.split("\n")[1]
            assert body.startswith(("ideal I = ", "module m = [")), body
            assert not re.search(r"[-+()/]", body), body
    for k in (1, 4):
        assert (out / f"s{k:03d}.primdec").read_text() == drawn[k]


def test_readme_names_every_long_option_of_the_tool(capsys):
    # the README paragraph on the tool, read against its own --help, so an
    # option or choice added to one cannot go missing from the other
    with pytest.raises(SystemExit) as exc:
        _load_tool().main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    readme = (ROOT / "README.md").read_text()
    start = readme.index("`tools/differential.py OLD_TREE NEW_TREE")
    paragraph = readme[start:].split("\n\n", 1)[0]
    options = re.findall(r"\[(--[\w-]+)(?: \{([^}]*)\})?", usage)
    assert len(options) >= 6
    for option, choices in options:
        assert option in paragraph, option
        if choices:
            assert f"{option} {choices.replace(',', '|')}" in paragraph, option


def test_survey_prints_the_innermost_library_frames_of_each_failure(monkeypatch, tmp_path, capsys):
    # seed 7's s005 raises the bounded shear error in min_ass, and s004
    # answers; seed 11's s003 under lp stalls in the engine past any short
    # deadline, where the child's faulthandler dump gives the frames
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    tool = _load_tool()
    args = [str(ROOT), "--survey", "--count", "6", "--timeout", "20"]
    assert tool.main([*args, "--seed", "7", "--only", "s004,s005"]) == 0
    line, summary = capsys.readouterr().out.splitlines()
    name, status, kind, cpu, frames = line.split(" ", 4)
    assert (name, status, kind) == ("s005.primdec", "error", "DecompositionError")
    assert float(cpu.removeprefix("cpu=")) > 0
    frames = frames.split(" < ")
    assert frames[0].startswith("decompose._min_ass_rec:")
    assert 1 < len(frames) <= tool.SURVEY_FRAMES
    assert all(re.fullmatch(r"\w+\.\S+:\d+", frame) for frame in frames)
    assert summary.endswith(": 1 answered, 1 error, 0 timeout")
    args[-1] = "1"
    assert tool.main([*args, "--seed", "11", "--order", "lp", "--only", "s003"]) == 0
    line, summary = capsys.readouterr().out.splitlines()
    name, status, _cpu, frames = line.split(" ", 3)
    assert (name, status) == ("s003.primdec", "timeout")
    assert frames.split(" < ")[0].startswith("groebner.")
    assert summary.endswith(": 0 answered, 0 error, 1 timeout")


@pytest.mark.parametrize("trees", [["a"], ["a", "b", "--survey"]])
def test_survey_takes_one_tree_and_a_comparison_two(capsys, trees):
    with pytest.raises(SystemExit) as exc:
        _load_tool().main(trees)
    assert exc.value.code == 2
    assert "give two trees, or one with --survey" in capsys.readouterr().err


def test_survey_classes_each_failure_by_where_it_ended(monkeypatch, tmp_path, capsys):
    tool = _load_tool()
    tagged = ["groebner._reduce_full:180", "groebner._tagged_run:613", "groebner.syzygies:624"]
    shear = ["decompose._min_ass_rec:444", "decompose.min_ass:457", "verify._check:90"]
    assert tool.failure_class(tagged + shear) == "syzygies"
    assert tool.failure_class(shear) == "min_ass"
    checked = ["verify.validate_decomposition:120", "cli.run_script:400"]
    assert tool.failure_class(checked) == "validator"
    assert tool.failure_class(["groebner._reduce_full:180", "groebner.eliminate:855"]) == "other"
    assert tool.failure_class([]) == "other"
    # the summary counts each class before its ": ", the outcomes after it
    failures = {
        "s000.primdec": ("timeout", tagged),
        "s001.primdec": ("DecompositionError", shear),
        "s002.primdec": ("DecompositionError", shear[:1]),
        "s003.primdec": ("exit=-9", []),
    }
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(tool, "_survey_one", lambda _tree, path, _t: (1.0, failures.get(path.name)))
    assert tool.main([str(ROOT), "--survey", "--count", "6"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == sorted(failures)
    head, tail = summary.rsplit(": ", 1)
    assert head.endswith(" syzygies=1 min_ass=2 validator=0 other=1")
    assert tail == "2 answered, 3 error, 1 timeout"
