"""Workloads of the benchmark: the cases each one runs and the answer each must give.

Every case is a script in the primarydec CLI language plus a mode that says
which public entry point the case process calls:

- ``cli``: ``parse_script`` -> ``run_script`` -> ``render_json``, the batch path
  including validation;
- ``primdec``: ``primary_decomposition`` of the script's single input;
- ``minass``: ``min_ass`` of the script's single input, with no Ext.

``cases(workload, seed)`` builds a workload's cases. The same seed gives the
same inputs, and seed 0 gives exactly the inputs written out below. The seed
changes coefficients and case order only, never the shape of a case, so each
case keeps its structure and roughly its cost.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

# The six frozen fixtures, read in place so they cannot drift from the tests.
FIXTURES = (
    "axes_localize",
    "embedded_line",
    "module_rank3",
    "parabola",
    "quadratic_points",
    "three_monomials",
)
FIXTURE_DIR = "tests/fixtures"

# Per-case deadline in seconds. Past it the case process is stopped, the case
# is charged the time it ran and counted as failed.
DEADLINES = {"cli": 60.0, "points": 60.0, "minass": 60.0, "cliff": 30.0}

WORKLOADS = tuple(DEADLINES)

SD8 = "x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576"
NON_SQUARES = (2, 3, 5, 6, 7)


@dataclass(frozen=True)
class Case:
    name: str
    why: str
    mode: str
    # Script text, or "" when the script is the fixture file named by ``fixture``.
    script: str = ""
    fixture: str | None = None
    # What the answer must hold; see ``check``.
    expect: dict = field(default_factory=dict)


def _script(variables: str, kind: str, value: str, verb: str) -> str:
    name = "m" if kind == "module" else "I"
    return (
        f"ring r = 0, ({variables}), dp;\n"
        f"{kind} {name} = {value};\n"
        f"{verb} {name};\n"
    )


def _flip(text: str, variables: str, signs: dict[str, int]) -> str:
    """Substitute v -> -v for every variable with sign -1."""
    for v in variables.replace(" ", "").split(","):
        if signs.get(v, 1) < 0:
            text = re.sub(rf"\b{v}\b", f"(-{v})", text)
    return text


def _linear(var: str, root: int) -> str:
    """How render_polynomial prints the monic polynomial var - root."""
    if root == 0:
        return var
    return f"{var} - {root}" if root > 0 else f"{var} + {-root}"


def _vanishing(var: str, roots) -> str:
    return "*".join(f"({var} - ({r}))" for r in roots)


def _primes(*primes) -> list[list[str]]:
    """Canonical answer shape: each prime's generators sorted, primes sorted."""
    return sorted(sorted(p) for p in primes)


def _grid(roots) -> tuple[str, list[list[str]]]:
    """f(x), f(y), f(z) with f vanishing at roots: len(roots)^3 rational points."""
    value = ", ".join(_vanishing(v, roots) for v in "xyz")
    expect = _primes(
        *(
            [_linear("x", a), _linear("y", b), _linear("z", c)]
            for a in roots
            for b in roots
            for c in roots
        )
    )
    return value, expect


def _sqrt_lines(a: int, b: int, c: int, r: int) -> tuple[str, list[list[str]]]:
    """(x^2-a)(x^2-b)(x-r), (y^2-c)(y-x): six points over Q(sqrt a, sqrt b, sqrt c)."""
    value = f"(x^2 - {a})*(x^2 - {b})*(x - ({r})), (y^2 - {c})*(y - x)"
    expect = _primes(
        [f"x^2 - {a}", f"y^2 - {c}"],
        [f"x^2 - {b}", f"y^2 - {c}"],
        [_linear("x", r), f"y^2 - {c}"],
        ["x - y", f"y^2 - {a}"],
        ["x - y", f"y^2 - {b}"],
        [_linear("x", r), _linear("y", r)],
    )
    return value, expect


CYCLIC3 = "x + y + z, x*y + y*z + z*x, x*y*z - 1"
CYCLIC3_PRIMES = _primes(
    ["x - 1", "y + z + 1", "z^2 + z + 1"],
    ["y - 1", "x + z + 1", "z^2 + z + 1"],
    ["z - 1", "x + y + 1", "y^2 + y + 1"],
)
KATSURA3 = "x + 2*y + 2*z - 1, x^2 + 2*y^2 + 2*z^2 - x, 2*x*y + 2*y*z - y"
KATSURA3_PRIMES = _primes(
    ["x - 1", "y", "z"],
    ["x - 1/3", "y", "z - 1/3"],
    ["x + z - 1/2", "y + 1/2*z - 1/4", "z^2 - 1/7*z - 1/28"],
)

# ROADMAP's hard cases, run through the CLI with validation.
HARD = (
    (
        "twisted_cubic",
        "x, y, z, w",
        "x*z - y^2, y*w - z^2, x*w - y*z",
        "prime input: a cheap Ext/hull path with one component",
    ),
    (
        "embedded_mix",
        "x, y, z",
        "z^2*(x - 1)^2, x*y*(y - 1), x^3*z - z",
        "mixed codimensions with embedded components and several witness exponents",
    ),
    (
        "unit_product",
        "x, y, z",
        "x^2*y - z^2, y^3 - x*z, x*y*z - 1",
        "zero-dimensional, one prime of degree 6: canon_map dominates",
    ),
    (
        "binomial_cone",
        "x, y, z",
        "x*y^2 - x*z, x^2*z - y*z, x*y*z",
        "binomial ideal where canon_map took 0.69 of 1.06 s",
    ),
)


def _cli_cases(rng: random.Random, seed: int) -> list[Case]:
    cases = [
        Case(
            name=f"fixture_{f}",
            why="frozen fixture; output must stay byte-identical",
            mode="cli",
            fixture=f"{FIXTURE_DIR}/{f}.primdec",
            expect={"json_file": f"{FIXTURE_DIR}/{f}.expected.json"},
        )
        for f in FIXTURES
    ]
    for name, variables, value, why in HARD:
        names = variables.replace(" ", "").split(",")
        signs = {v: (1 if seed == 0 else rng.choice((1, -1))) for v in names}
        cases.append(
            Case(
                name=name,
                why=why,
                mode="cli",
                script=_script(variables, "ideal", _flip(value, variables, signs), "primdec"),
                expect={"validation_ok": True},
            )
        )
    return cases


def _draw(rng: random.Random, seed: int, pool, k: int, default):
    return tuple(default) if seed == 0 else tuple(rng.sample(pool, k))


def _signed_roots(rng: random.Random, seed: int, k: int) -> tuple[int, ...]:
    """1..k with seeded signs: the magnitudes, and so the cost, stay fixed."""
    return tuple(i if seed == 0 else rng.choice((i, -i)) for i in range(1, k + 1))


def _sqrt_lines_drawn(rng: random.Random, seed: int):
    a, b, c = _draw(rng, seed, NON_SQUARES, 3, (2, 3, 5))
    (r,) = _draw(rng, seed, (-3, -2, -1, 1, 2, 3), 1, (1,))
    return _sqrt_lines(a, b, c, r)


def _points_cases(rng: random.Random, seed: int) -> list[Case]:
    grid_value, grid_primes = _grid(_signed_roots(rng, seed, 3))
    sq_value, sq_primes = _sqrt_lines_drawn(rng, seed)

    def radical(primes):
        return {"components": primes, "primes": primes, "embedded": 0}

    return [
        Case(
            "grid27",
            "27 rational points: localize_module and intersect dominate",
            "primdec",
            _script("x, y, z", "ideal", grid_value, "primdec"),
            expect=radical(grid_primes),
        ),
        Case(
            "sqrt_lines",
            "six points, four of them irrational: quadratic primes among linear ones",
            "primdec",
            _script("x, y", "ideal", sq_value, "primdec"),
            expect=radical(sq_primes),
        ),
        Case(
            "katsura3",
            "classic dense system: four points in three primes with rational coefficients",
            "primdec",
            _script("x, y, z", "ideal", KATSURA3, "primdec"),
            expect=radical(KATSURA3_PRIMES),
        ),
        Case(
            "cyclic3",
            "classic symmetric system: six points in three conjugate pairs",
            "primdec",
            _script("x, y, z", "ideal", CYCLIC3, "primdec"),
            expect=radical(CYCLIC3_PRIMES),
        ),
    ]


def _minass_cases(rng: random.Random, seed: int) -> list[Case]:
    (s,) = _draw(rng, seed, NON_SQUARES, 1, (2,))
    (d,) = _draw(rng, seed, NON_SQUARES, 1, (2,))
    grid27_value, grid27_primes = _grid(_signed_roots(rng, seed, 3))
    grid64_value, grid64_primes = _grid(_signed_roots(rng, seed, 4))
    sq_value, sq_primes = _sqrt_lines_drawn(rng, seed)

    def minass(name, why, variables, value, primes):
        return Case(
            name, why, "minass", _script(variables, "ideal", value, "minass"),
            expect={"primes": primes},
        )

    return [
        minass(
            "sqrt_cube",
            "GTZ cannot certify the shape: about 900 coordinate shears find 4 primes",
            "x, y, z",
            f"x^2 - {s}, y^2 - {s}, z^2 - {s}",
            _primes(
                *(
                    [f"x {u} z", f"y {v} z", f"z^2 - {s}"]
                    for u in "+-"
                    for v in "+-"
                )
            ),
        ),
        minass(
            "grid64",
            "64 rational points: many univariate factors, each split at once",
            "x, y, z",
            grid64_value,
            grid64_primes,
        ),
        minass(
            "grid27",
            "the points workload's largest input, without Ext",
            "x, y, z",
            grid27_value,
            grid27_primes,
        ),
        minass(
            "sqrt_lines",
            "mixed rational and quadratic primes without Ext",
            "x, y",
            sq_value,
            sq_primes,
        ),
        minass(
            "sd8",
            "degree-8 Swinnerton-Dyer factor: univariate_factor does most of the work",
            "x, y",
            f"({SD8})*(x^2 - {d}), y^3 - x",
            _primes([f"x^2 - {d}", "y^3 - x"], [SD8, "y^3 - x"]),
        ),
        minass(
            "cyclic3",
            "symmetric system whose primes need a quadratic factor",
            "x, y, z",
            CYCLIC3,
            CYCLIC3_PRIMES,
        ),
        minass(
            "axes4",
            "positive-dimensional monomial case: four coordinate axes in 4-space",
            "x, y, z, w",
            "x*y, x*z, x*w, y*z, y*w, z*w",
            _primes(
                ["x", "y", "z"], ["x", "y", "w"], ["x", "z", "w"], ["y", "z", "w"]
            ),
        ),
    ]


TWISTED_CUBIC = ["x*z - y^2", "y*w - z^2", "x*w - y*z"]


def _cliff_cases(rng: random.Random, seed: int) -> list[Case]:
    # Known hangs. The expected primes are derived by hand so that a later
    # fix is scored on its answer, not only on finishing.
    return [
        Case(
            "cubic_sq",
            "twisted cubic squared: about 800 failed GTZ splits, each followed by shears",
            "minass",
            _script(
                "x, y, z, w",
                "ideal",
                "(x*z - y^2)^2, (x*z - y^2)*(y*w - z^2), (y*w - z^2)^2, x*w - y*z",
                "minass",
            ),
            expect={"primes": _primes(["z^2 - y*w", "y*z - x*w", "y^2 - x*z"])},
        ),
        Case(
            "mod2",
            "rank-2 module: the same shear explosion reached through the annihilator",
            "primdec",
            _script("x, y, z", "module", "[x^2, y*z], [x*y, z^2], [y^2, x*z]", "primdec"),
            expect={
                "primes": _primes(
                    ["z"], ["x", "y"], ["x - z", "y - z"], ["x + y + z", "y^2 + y*z + z^2"]
                )
            },
        ),
        Case(
            "circ_line",
            "circle plus two points: over 60 s although every prime is simple",
            "minass",
            _script("x, y, z", "ideal", "x^2 + y^2 - 2, (x - y)*z, z^2 - z", "minass"),
            expect={
                "primes": _primes(
                    ["z", "x^2 + y^2 - 2"], ["z - 1", "x - 1", "y - 1"], ["z - 1", "x + 1", "y + 1"]
                )
            },
        ),
    ]


_BUILDERS = {
    "cli": _cli_cases,
    "points": _points_cases,
    "minass": _minass_cases,
    "cliff": _cliff_cases,
}


def cases(workload: str, seed: int) -> list[Case]:
    """The workload's cases for this seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    built = _BUILDERS[workload](rng, seed)
    if seed != 0:
        rng.shuffle(built)
    return built
