"""Differential tests against sympy, a Groebner implementation that shares no
code with this package.

sympy is a test-only dependency; these tests are skipped when it is absent.
"""

import pytest

sympy = pytest.importorskip("sympy")

from primarydec.cli import parse_polynomial  # noqa: E402
from primarydec.groebner import canonical, normal_form  # noqa: E402
from primarydec.polyring import (  # noqa: E402
    DEGREVLEX,
    LEX,
    RingContext,
    ideal,
    render_polynomial,
)

ORDERS = {"grevlex": DEGREVLEX, "lex": LEX}

# name -> (variables, generators); every order here ranks x > y > z > w
IDEALS = {
    "katsura3": (
        "x, y, z",
        "x + 2*y + 2*z - 1, x^2 + 2*y^2 + 2*z^2 - x, 2*x*y + 2*y*z - y",
    ),
    "cyclic3": ("x, y, z", "x + y + z, x*y + y*z + z*x, x*y*z - 1"),
    "twisted_cubic": ("x, y, z, w", "x*z - y^2, y*w - z^2, x*w - y*z"),
    "rational_fat_point": (
        "x, y, z",
        "5/6*x - 1/3*y^2, 10007*x*y - 2/7*z, y^3 - 1/2*z",
    ),
    "rational_points": (
        "x, y, z",
        "5/6*x - 1/3*y^2, 10007*y*z - 2/7*x^2 + 1, y^3 - 1/2*z*x",
    ),
}

# polynomials reduced by normal_form in each ring
PROBES = {
    "x, y, z": "x^3*y - 3/4*z^2 + 10007*x*y*z + 1/9",
    "x, y, z, w": "x^2*w^2 - 2/3*y^3*z + 10007*x*z*w - 5",
}


def _ring(variables, order):
    return RingContext(tuple(v.strip() for v in variables.split(",")), ORDERS[order])


def _ours(ring, text):
    return [parse_polynomial(ring, g.strip()) for g in text.split(",")]


def _to_sympy(p, gens):
    expr = sympy.sympify(render_polynomial(p).replace("^", "**"))
    return sympy.Poly(expr, *gens, domain="QQ")


def _case(name, order):
    variables, text = IDEALS[name]
    ring = _ring(variables, order)
    gens = sympy.symbols(ring.variables)
    polys = _ours(ring, text)
    theirs = sympy.groebner(
        [_to_sympy(p, gens) for p in polys], *gens, order=order, domain="QQ"
    )
    return ring, gens, polys, theirs


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("name", sorted(IDEALS))
def test_canonical_matches_sympy_groebner(name, order):
    ring, gens, polys, theirs = _case(name, order)
    ours = [g.components[0] for g in canonical(ideal(ring, polys)).generators]
    # both bases are reduced; made monic in the order, they are equal as sets
    ours = {_to_sympy(p, gens) for p in ours}
    assert all(p.LC(order=order) == 1 for p in ours)
    assert ours == {p.exquo_ground(p.LC(order=order)) for p in theirs.polys}


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("name", sorted(IDEALS))
def test_normal_form_matches_sympy_reduced(name, order):
    ring, gens, polys, theirs = _case(name, order)
    f = parse_polynomial(ring, PROBES[IDEALS[name][0]])
    # against a Groebner basis the remainder does not depend on the division
    # order, so sympy's division algorithm is an independent reference
    _quotients, remainder = sympy.reduced(
        _to_sympy(f, gens), theirs.polys, *gens, order=order, domain="QQ"
    )
    assert _to_sympy(normal_form(f, ideal(ring, polys)), gens) == remainder
