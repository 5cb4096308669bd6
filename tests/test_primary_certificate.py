"""The validator's primary test against the Ext criterion it replaced.

`verify._is_primary_with_prime` certifies a component by contraction over
Q(u) (Gianni-Trager-Zacharias) and computes no Ext module.  The Ext
criterion of Eisenbud-Huneke-Vasconcelos is rebuilt here from the public
API, and the two must agree on every (component, prime) pair of the fixtures
and on hand-built pairs that must be rejected or accepted.
"""

from pathlib import Path

import pytest

import primarydec.homology as homology
from primarydec.cli import parse_polynomial, parse_script
from primarydec.decompose import (
    codim_associated_primes,
    min_ass,
    primary_decomposition,
)
from primarydec.groebner import canonical, codim, is_member, is_unit_ideal
from primarydec.homology import ass_prim_codim
from primarydec.polyring import (
    FreeElement,
    MonomialOrder,
    RingContext,
    Submodule,
    ideal,
)
from primarydec.verify import _is_primary_with_prime, validate_decomposition

FIXTURES = Path(__file__).parent / "fixtures"
SCRIPTS = sorted(FIXTURES.glob("*.primdec")) + sorted(
    (FIXTURES / "orders").glob("*.primdec")
)
R = RingContext(("x", "y", "z"), MonomialOrder(kind="degrevlex"))


def ext_criterion(Q, P, seed=0):
    """Q is P-primary iff P is prime, codim Q = codim P, P is the only
    associated prime of codim c, and no Ext^b(F/Q, R) with b > c has an
    annihilator of codim b."""
    if min_ass(P, seed) != [P]:
        return False
    c = codim(P)
    if codim(Q) != c:
        return False
    if codim_associated_primes(Q, c, seed) != [P]:
        return False
    return all(is_unit_ideal(ass_prim_codim(Q, b)) for b in range(c + 1, Q.ring.n + 1))


def both(Q, P):
    Q, P = canonical(Q), canonical(P)
    return _is_primary_with_prime(Q, P, 0), ext_criterion(Q, P)


def polys(*texts):
    return [parse_polynomial(R, t) for t in texts]


def vectors(*rows):
    return Submodule(
        R, len(rows[0]), [FreeElement(R, tuple(polys(*row))) for row in rows]
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_agrees_on_every_fixture_pair(script):
    for stmt in parse_script(script.read_text()).statements:
        if stmt.verb != "primdec":
            continue
        comps = primary_decomposition(stmt.module, seed=0).components
        for i, q in enumerate(comps):
            for j, p in enumerate(comps):
                # a component is primary for its own prime and no other
                assert both(q.module, p.prime) == (i == j,) * 2, (i, j)


REJECTED = {
    "x2_xy_at_x": (ideal(R, polys("x^2", "x*y")), ideal(R, polys("x"))),
    "x2_y_at_x": (ideal(R, polys("x^2", "y")), ideal(R, polys("x"))),
    "x2m1_y_at_xm1_y": (ideal(R, polys("x^2 - 1", "y")), ideal(R, polys("x - 1", "y"))),
    "prime_not_prime": (ideal(R, polys("x^2 - 1")), ideal(R, polys("x^2 - 1"))),
    "rank2_xe1_ye1_at_0": (vectors(("x", "0"), ("y", "0")), ideal(R, [])),
    "rank2_xe1_ye1_at_xy": (vectors(("x", "0"), ("y", "0")), ideal(R, polys("x", "y"))),
    "rank2_embedded_at_x": (
        vectors(("x", "0"), ("0", "x^2"), ("0", "x*y")),
        ideal(R, polys("x")),
    ),
    # F/Q is R/(x^3, x (1 - y z^2)), with a component at (x, 1 - y z^2).  In
    # position over term h is y z^2 - 1; in term over position (1, z^2)
    # would be led at z^2 e2, and h = y z^2 would miss that component
    "rank2_needs_position_over_term": (
        vectors(("x^3", "0"), ("0", "x^3"), ("1", "z^2"), ("x*y", "x")),
        ideal(R, polys("x")),
    ),
}

ACCEPTED = {
    "x2_xy_y2_at_xy": (ideal(R, polys("x^2", "x*y", "y^2")), ideal(R, polys("x", "y"))),
    "rank2_xe1_xe2_at_x": (vectors(("x", "0"), ("0", "x")), ideal(R, polys("x"))),
    "zero_at_zero": (ideal(R, []), ideal(R, [])),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_agrees_on_rejected_pairs(name):
    assert both(*REJECTED[name]) == (False, False)


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_agrees_on_accepted_pairs(name):
    assert both(*ACCEPTED[name]) == (True, True)


def test_validator_computes_no_ext_module(monkeypatch):
    I = ideal(R, polys("z^2*(x - 1)^2", "x*y*(y - 1)", "x^3*z - z"))
    comps = primary_decomposition(I).components
    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("the validator computed an Ext module")

    monkeypatch.setattr(homology, "ext_module", counted)
    assert validate_decomposition(I, comps).ok
    assert calls == []


def test_validates_the_rank2_module_whose_ext_check_hung():
    # script s045 of `tools/differential.py --count 56 --seed 7`: the Ext
    # modules above the component's codim did not finish in 60 s
    script = parse_script(
        "ring r = 0, (x, y, z), dp;\n"
        "module m = [(y*x - 1)*x^2*(3*x - 2), (z^2 - 2/3)*(z*x + 1/2), 0], "
        "[(-2*z + x + 1)*(x + 1), x, x*x*x*(x*z - 1)];\n"
        "primdec m;\n"
    )
    M = script.statements[0].module
    res = primary_decomposition(M, seed=0)
    assert validate_decomposition(M, res.components, seed=0).ok


def test_rejects_a_twisted_cubic_ideal_with_a_component_at_x_y():
    # the Ext criterion raises DecompositionError here, from min_ass of an Ext
    # annihilator; modulo x^2 - y the ideal is (x (x^3 - z)^2)
    Q = canonical(ideal(R, polys("(y^2 - x*z)^2", "(x*y - z)*(y^2 - x*z)", "x^2 - y")))
    P = canonical(ideal(R, polys("y^2 - x*z", "x*y - z", "x^2 - y")))
    x, f = polys("x", "(x^3 - z)^2")
    # x*f in Q, f not in Q and x not in P: Q is not P-primary
    assert is_member(x * f, Q) and not is_member(f, Q) and not is_member(x, P)
    assert _is_primary_with_prime(Q, P, 0) is False
