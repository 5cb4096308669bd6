"""Differential run of random primdec scripts under two source trees.

Writes N seeded random scripts (ideals and rank-2 or rank-3 modules in two or
three variables, each entry a product of linear, quadratic and monomial
factors, some with rational coefficients such as 1/2 and -2/3), runs
`python3 -m primarydec run --json` on each with PYTHONPATH=<tree>/src for both
trees, one process at a time (the tree that goes first alternates), and
prints per script the exit codes, each tree's CPU seconds (user + system of
the child process) and a status, the last word on the line: `same`,
`differs` or `timeout` (with the side that timed out).  The summary line adds
each tree's total CPU seconds; a run that times out counts until it is
stopped.  Output means exit code and stdout; the wording of an error on
stderr may differ.  Exits 1 when some script finishes on both sides with
different output.

    python3 tools/differential.py OLD_TREE NEW_TREE [--count 56] [--seed 7]
        [--timeout 20] [--only s015,s028] [--order dp|lp|wp]
        [--command primdec|minass] [--shape default|points|monomial]

`--only` runs just the named scripts.  All `--count` scripts are still drawn,
so each name keeps the text it has in a full run.  `--order` rewrites only
the ring line: lp, or wp with the weights WP_WEIGHTS cut to the number of
variables.  The default, dp, gives the scripts of earlier versions of this
tool, and every order draws the same polynomials.  `--command minass` ends
each ideal script in `minass I;` instead of `primdec I;`, to compare minimal
primes alone; module scripts stay as they are, and every script keeps its
name and the rest of its text.  `--shape points` draws zero-dimensional
ideals of rational points instead (`points_script`): grids of one to three
roots per variable, some with a doubled root, cut down by products of two
root factors or by x - y.  `--shape monomial` draws monomial ideals and
rank-2 monomial modules (`monomial_script`), whose intersections,
saturations and minimal primes the library computes in closed form.  The
default shape draws the scripts of earlier versions of this tool, with the
same names and text.  The scripts that run are
written to a fresh temporary directory, which is kept and named in the last
line of output.

    python3 tools/differential.py TREE --survey [the same options]

`--survey` runs the drawn scripts under one tree, cold, one process each,
and prints one line per failure: the script, `error` with the exception's
type (or `exit=N` for a child that died otherwise) or `timeout`, the CPU
seconds, and the innermost frames in the library's source, innermost first.
A timeout's frames come from a `faulthandler` dump taken at the deadline, in
the child itself.  Each failure gets the class of where it ended, read off
those frames (`failure_class`): `syzygies` when one is in
`groebner._tagged_run`, else `min_ass` when one is in
`decompose._min_ass_rec`, else `validator` when one is in `verify`, else
`other`.  The summary line counts the failures of each class before its
`: `, then the answers, errors and timeouts.

Standard library only.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

VARIABLES = ("x", "y", "z")
WP_WEIGHTS = (3, 1, 2)
HALF, MINUS_TWO_THIRDS = Fraction(1, 2), Fraction(-2, 3)
POINT_ROOTS = (1, -1, 2, -2, 3, HALF, MINUS_TWO_THIRDS)


def _term(coeff: int | Fraction, mono: str, first: bool) -> str:
    sign = "-" if coeff < 0 else ("" if first else "+")
    mag = abs(coeff)
    body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
    return f"{sign}{body}" if first else f" {sign} {body}"


def _linear(rng: random.Random, names) -> str:
    picked = rng.sample(names, rng.randint(1, min(2, len(names))))
    terms = [(rng.choice((1, 1, -1, 2, -2, 3, HALF)), v) for v in picked]
    const = rng.choice((0, 0, 1, -1, 2, -2, 3, MINUS_TWO_THIRDS))
    if const:
        terms.append((const, ""))
    return "(" + "".join(_term(c, m, i == 0) for i, (c, m) in enumerate(terms)) + ")"


def _quadratic(rng: random.Random, names) -> str:
    a = rng.choice(names)
    lead = f"{a}^2" if rng.random() < 0.6 else f"{a}*{rng.choice(names)}"
    const = rng.choice((1, -1, 2, -2, -3, 5, HALF, MINUS_TWO_THIRDS))
    return "(" + lead + _term(const, "", False) + ")"


def _monomial(rng: random.Random, names) -> str:
    a = rng.choice(names)
    return rng.choice((a, f"{a}^2", f"{a}*{rng.choice(names)}"))


def _product(rng: random.Random, names) -> str:
    makers = (_linear, _quadratic, _monomial)
    return "*".join(rng.choice(makers)(rng, names) for _ in range(rng.randint(1, 3)))


def _ring_line(names, order: str) -> str:
    if order == "wp":
        order = f"wp({', '.join(map(str, WP_WEIGHTS[: len(names)]))})"
    return f"ring r = 0, ({', '.join(names)}), {order};"


def random_script(rng: random.Random, order: str = "dp", command: str = "primdec") -> str:
    names = list(VARIABLES[: rng.randint(2, 3)])
    lines = [_ring_line(names, order)]
    if rng.random() < 0.5:
        gens = ", ".join(_product(rng, names) for _ in range(rng.randint(1, 3)))
        lines.append(f"ideal I = {gens};")
        lines.append(f"{command} I;")
    else:
        rank = rng.randint(2, 3)
        vectors = []
        for _ in range(rng.randint(1, 2)):
            entries = [_product(rng, names) if rng.random() < 0.8 else "0" for _ in range(rank)]
            vectors.append("[" + ", ".join(entries) + "]")
        lines.append(f"module m = {', '.join(vectors)};")
        lines.append("primdec m;")
    return "\n".join(lines) + "\n"


def _root(name: str, a) -> str:
    return "(" + name + _term(-a, "", False) + ")"


def points_script(rng: random.Random, order: str = "dp", command: str = "primdec") -> str:
    """A zero-dimensional ideal of rational points: for each variable v, a
    product of v - a over one to three roots a, sometimes with the first one
    doubled; then up to two cuts (v - a)(w - b), which keep the grid points
    with v = a or w = b; sometimes x - y, a diagonal."""
    names = list(VARIABLES[: rng.randint(2, 3)])
    roots = {v: rng.sample(POINT_ROOTS, rng.randint(1, 3)) for v in names}
    gens = []
    for v in names:
        factors = [_root(v, a) for a in roots[v]]
        if rng.random() < 0.2:
            factors.append(factors[0])
        gens.append("*".join(factors))
    for _ in range(rng.randint(0, 2)):
        v, w = rng.sample(names, 2)
        gens.append(_root(v, rng.choice(roots[v])) + "*" + _root(w, rng.choice(roots[w])))
    if rng.random() < 0.2:
        gens.append("x - y")
    return f"{_ring_line(names, order)}\nideal I = {', '.join(gens)};\n{command} I;\n"


def _monomial_text(rng: random.Random, names) -> str:
    exps = [rng.choice((0, 0, 1, 1, 2, 3)) for _ in names]
    if not any(exps):
        exps[rng.randrange(len(names))] = 1
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)


def monomial_script(rng: random.Random, order: str = "dp", command: str = "primdec") -> str:
    """A monomial ideal of two to four monomials, or a rank-2 monomial module:
    two to four vectors, each with one monomial entry, both components used.
    Exponents run from 0 to 3."""
    names = list(VARIABLES[: rng.randint(2, 3)])
    ring = _ring_line(names, order)
    if rng.random() < 0.5:
        gens = ", ".join(_monomial_text(rng, names) for _ in range(rng.randint(2, 4)))
        return f"{ring}\nideal I = {gens};\n{command} I;\n"
    comps = [0, 1] + [rng.randrange(2) for _ in range(rng.randint(0, 2))]
    rng.shuffle(comps)
    vectors = []
    for c in comps:
        entries = ["0", "0"]
        entries[c] = _monomial_text(rng, names)
        vectors.append(f"[{', '.join(entries)}]")
    return f"{ring}\nmodule m = {', '.join(vectors)};\nprimdec m;\n"


SHAPES = {"default": random_script, "points": points_script, "monomial": monomial_script}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run(tree: Path, script: Path, timeout: float):
    """(CPU seconds of the child, (exit code, stdout) or None on timeout).

    Only one child runs at a time, so the change in the reaped children's
    usage is this child's; on timeout it is killed and reaped before the
    second reading."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "primarydec", "run", "--json", str(script)]
    start = _cpu_seconds()
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
        result = done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        result = None
    return _cpu_seconds() - start, result


# the survey's child: run a script as `run --json` does, then print the
# innermost-first frames of an error as faulthandler prints a timeout's
_SURVEY_CHILD = """
import faulthandler, sys, traceback
from pathlib import Path
faulthandler.dump_traceback_later(float(sys.argv[2]), exit=True)
from primarydec.cli import parse_script, render_json, run_script
path = Path(sys.argv[1])
try:
    render_json(run_script(parse_script(path.read_text()), base_dir=path.parent))
except Exception as exc:
    print("Error:", type(exc).__name__, file=sys.stderr)
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        print(f'  File "{frame.filename}", line {frame.lineno} in {frame.name}', file=sys.stderr)
    sys.exit(2)
"""
# frames the survey shows per failure
SURVEY_FRAMES = 6
# the survey's failure classes, in the order failure_class tries them
SURVEY_CLASSES = (
    ("syzygies", "groebner._tagged_run:"),
    ("min_ass", "decompose._min_ass_rec:"),
    ("validator", "verify."),
)
_FRAME = re.compile(r'File "([^"]+)", line (\d+) in (\S+)')


def _survey_one(tree: Path, script: Path, timeout: float):
    """(CPU seconds, None when the script answered, else (kind, frames)):
    kind is the exception's type, `timeout`, or the exit code of a child
    that died otherwise, and frames the innermost
    SURVEY_FRAMES frames in tree's library, as `module.function:line`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-c", _SURVEY_CHILD, str(script), str(timeout)]
    start = _cpu_seconds()
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout + 30)
        code, err = done.returncode, done.stderr
    except subprocess.TimeoutExpired:
        code, err = None, ""
    cpu = _cpu_seconds() - start
    if code == 0:
        return cpu, None
    if code == 2 and err.startswith("Error: "):
        kind = err.split("\n", 1)[0].split(" ", 1)[1]
    elif code is None or err.startswith("Timeout"):
        kind = "timeout"
    else:  # a crash: no exception reached the child's handler
        kind = f"exit={code}"
    lib = str((tree / "src" / "primarydec").resolve())
    frames = [
        f"{Path(f).stem}.{name}:{line}"
        for f, line, name in _FRAME.findall(err)
        if str(Path(f).resolve().parent) == lib
    ]
    return cpu, (kind, frames[:SURVEY_FRAMES])


def failure_class(frames) -> str:
    """Where a failure ended: the first of SURVEY_CLASSES that one of its
    frames, `module.function:line`, starts with, else `other`."""
    for name, prefix in SURVEY_CLASSES:
        if any(frame.startswith(prefix) for frame in frames):
            return name
    return "other"


def _survey(tree: Path, scripts, timeout: float, out: Path) -> int:
    totals = {"answered": 0, "error": 0, "timeout": 0}
    classes = dict.fromkeys([name for name, _prefix in SURVEY_CLASSES] + ["other"], 0)
    for path in scripts:
        cpu, failure = _survey_one(tree, path, timeout)
        if failure is None:
            totals["answered"] += 1
            continue
        kind, frames = failure
        totals["timeout" if kind == "timeout" else "error"] += 1
        classes[failure_class(frames)] += 1
        status = "timeout" if kind == "timeout" else f"error {kind}"
        print(f"{path.name} {status} cpu={cpu:.3f} " + " < ".join(frames or ["-"]))
    print(
        f"{len(scripts)} scripts in {out}, "
        + " ".join(f"{k}={v}" for k, v in classes.items())
        + ": "
        + ", ".join(f"{v} {k}" for k, v in totals.items())
    )
    return 0


def _status(old, new) -> str:
    if old is None or new is None:
        side = "both" if old is None and new is None else ("old" if old is None else "new")
        return f"timeout ({side})"
    return "same" if old == new else "differs"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="reference source tree (holds src/)")
    ap.add_argument(
        "new", type=Path, nargs="?", help="source tree under test (holds src/); none with --survey"
    )
    ap.add_argument("--count", type=int, default=56, help="number of scripts")
    ap.add_argument("--seed", type=int, default=7, help="generator seed")
    ap.add_argument("--timeout", type=float, default=20.0, help="seconds per run")
    ap.add_argument(
        "--only", type=lambda text: text.split(","), help="comma-separated names, e.g. s015,s028"
    )
    ap.add_argument("--order", choices=("dp", "lp", "wp"), default="dp", help="ring order")
    ap.add_argument(
        "--command", choices=("primdec", "minass"), default="primdec", help="ideal scripts' verb"
    )
    ap.add_argument("--shape", choices=tuple(SHAPES), default="default", help="what scripts draw")
    ap.add_argument(
        "--survey", action="store_true", help="run one tree and report each failure's frames"
    )
    args = ap.parse_args(argv)
    if (args.new is None) != args.survey:
        ap.error("give two trees, or one with --survey")
    rng = random.Random(args.seed)
    draw = SHAPES[args.shape]
    texts = {f"s{k:03d}": draw(rng, args.order, args.command) for k in range(args.count)}
    names = args.only or list(texts)
    unknown = [name for name in names if name not in texts]
    if unknown:
        ap.error(f"--only names no script among the {args.count} drawn: {', '.join(unknown)}")
    out = Path(tempfile.mkdtemp(prefix="primdec-diff-"))
    scripts = []
    for name in names:
        path = out / f"{name}.primdec"
        path.write_text(texts[name])
        scripts.append(path)
    if args.survey:
        return _survey(args.old, scripts, args.timeout, out)
    results = {}
    for k, script in enumerate(scripts):
        sides = (("old", args.old), ("new", args.new))
        for side, tree in sides if k % 2 == 0 else sides[::-1]:
            results[side, k] = _run(tree, script, args.timeout)
    totals: dict[str, int] = {}
    for k, path in enumerate(scripts):
        (old_cpu, old), (new_cpu, new) = results["old", k], results["new", k]
        status = _status(old, new)
        totals[status] = totals.get(status, 0) + 1
        codes = " ".join(
            f"{side}={'-' if r is None else r[0]}" for side, r in (("old", old), ("new", new))
        )
        print(f"{path.name} {codes} old_cpu={old_cpu:.3f} new_cpu={new_cpu:.3f} {status}")
    old_total, new_total = (
        sum(results[side, k][0] for k in range(len(scripts))) for side in ("old", "new")
    )
    print(
        f"{len(scripts)} scripts in {out}, old_cpu={old_total:.3f} new_cpu={new_total:.3f}: "
        + ", ".join(f"{v} {k}" for k, v in sorted(totals.items()))
    )
    return 1 if totals.get("differs") else 0


if __name__ == "__main__":
    sys.exit(main())
