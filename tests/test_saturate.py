"""Saturation by elimination and localization by separators.

`saturate` computes A : J^inf with one Groebner run per generator of J, and
`localize_module` saturates once, by the product of one separator polynomial
per associated prime outside the localizing prime.  Both are compared here
with references written from the definitions: saturation as the fixed point
of repeated `quotient_by_ideal`, and localization as the saturation by the
intersection of the associated primes to remove.
"""

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from primarydec.cli import Command, parse_polynomial, parse_script
from primarydec.decompose import localize_module
from primarydec.groebner import (
    canonical,
    intersect_many,
    is_sub,
    module_equal,
    saturate,
)
from primarydec.polyring import (
    FreeElement,
    MonomialOrder,
    RingContext,
    Submodule,
    full_module,
    ideal,
)

from oracles import quotient_by_ideal

FIXTURES = Path(__file__).parent / "fixtures"

RINGS = {
    "dp": RingContext(("x", "y")),
    "lp": RingContext(("x", "y"), MonomialOrder(kind="lex")),
    "wp": RingContext(("x", "y"), MonomialOrder(weights=(2, 1))),
}


def saturate_by_quotients(A: Submodule, J: Submodule) -> Submodule:
    """A : J^inf as the fixed point of A -> A : J, in canonical form."""
    prev = canonical(A)
    while True:
        nxt = canonical(quotient_by_ideal(prev, J))
        if nxt == prev:
            return prev
        prev = nxt


def _factors(R: RingContext):
    x, y = R.variable(0), R.variable(1)
    return [x, y, x - 1, y + 1, x + y, x * y - 1, x * x + Fraction(1, 2) * y]


def _random_poly(rng: random.Random, R: RingContext):
    p = R.constant(rng.choice([1, -2, Fraction(3, 5)]))
    for _ in range(rng.randint(1, 3)):
        p = p * rng.choice(_factors(R))
    return p


def _random_module(rng: random.Random, R: RingContext, rank: int) -> Submodule:
    gens = []
    for _ in range(rng.randint(1, 3)):
        comps = [
            _random_poly(rng, R) if rng.random() < 0.7 else R.zero()
            for _ in range(rank)
        ]
        gens.append(FreeElement(R, comps))
    return Submodule(R, rank, gens)


def _ideal_j(rng: random.Random, R: RingContext, kind: str) -> Submodule:
    if kind == "zero":
        return ideal(R, [R.zero()])
    if kind == "unit":
        return ideal(R, [R.constant(7)])
    if kind == "principal":
        return ideal(R, [_random_poly(rng, R)])
    return ideal(R, [_random_poly(rng, R), _random_poly(rng, R)])


@pytest.mark.parametrize("kind", ["zero", "unit", "principal", "two-generated"])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("order", sorted(RINGS))
def test_saturate_matches_iterated_quotients(order, rank, kind):
    R = RINGS[order]
    rng = random.Random(f"{order}/{rank}/{kind}")
    for _ in range(4):
        A = _random_module(rng, R, rank)
        J = _ideal_j(rng, R, kind)
        got = saturate(A, J)
        assert got == saturate_by_quotients(A, J), (A, J)
        assert got.ring == R


def test_saturate_by_the_empty_ideal_is_the_free_module():
    R = RINGS["dp"]
    x = R.variable(0)
    A = Submodule(R, 2, [FreeElement(R, [x, R.zero()])])
    assert saturate(A, ideal(R, [])) == canonical(full_module(R, 2))


def localize_by_intersection(A: Submodule, J: Submodule, primes) -> Submodule:
    """A : K^inf for K the intersection of the primes not inside J."""
    bad = [P for P in primes if not is_sub(P, J)]
    if not bad:
        return canonical(A)
    return saturate_by_quotients(A, intersect_many(bad))


def _fixture_cases():
    """One case per fixture module: its primes from the frozen JSON of its
    primdec command, or else of its minass command."""
    for path in sorted(FIXTURES.glob("*.primdec")):
        script = parse_script(path.read_text())
        expected = json.loads(path.with_suffix(".expected.json").read_text())
        commands = [s for s in script.statements if isinstance(s, Command)]
        cases = {}
        for cmd, entry in zip(commands, expected):
            if cmd.verb == "primdec":
                primes = [comp["prime"] for comp in entry["components"]]
                cases[cmd.shown_input] = (cmd.module, primes, cmd.verb)
            elif cmd.verb == "minass":
                case = (cmd.module, entry["primes"], cmd.verb)
                cases.setdefault(cmd.shown_input, case)
        for shown, case in cases.items():
            yield pytest.param(path.stem, *case, id=f"{path.stem}-{shown}")


@pytest.mark.parametrize("name, M, prime_gens, verb", list(_fixture_cases()))
def test_localize_matches_saturation_by_intersection_on_fixtures(
    name, M, prime_gens, verb
):
    ring = M.ring
    primes = [
        ideal(ring, [parse_polynomial(ring, g) for g in gens]) for gens in prime_gens
    ]
    assert primes
    if verb == "minass":
        # minimal primes are all the associated primes of a radical ideal
        assert module_equal(intersect_many(primes), M), name
    for J in primes:
        assert localize_module(M, J) == localize_by_intersection(M, J, primes), name


GRID = ((Fraction(1, 2), -2), (0, 3), (1, Fraction(-1, 3)))


@pytest.mark.parametrize(
    "point",
    list(product(*GRID)),
    ids=lambda p: "_".join(str(c).replace("/", "over") for c in p),
)
def test_localize_matches_saturation_by_intersection_on_grid(point):
    R = RingContext(("x", "y", "z"))
    xs = [R.variable(i) for i in range(3)]
    # the points with x = 1/2 carry the non-reduced factor (x - 1/2)^2
    gens = [(v - c1) * (v - c2) for v, (c1, c2) in zip(xs, GRID)]
    A = ideal(R, [gens[0] * (xs[0] - GRID[0][0])] + gens[1:])
    primes = [ideal(R, [v - c for v, c in zip(xs, p)]) for p in product(*GRID)]
    x, y, z = (v - c for v, c in zip(xs, point))
    J = ideal(R, [x, y, z])
    got = localize_module(A, J)
    assert got == localize_by_intersection(A, J, primes)
    power = 2 if point[0] == GRID[0][0] else 1
    assert got == canonical(ideal(R, [x**power, y, z]))
