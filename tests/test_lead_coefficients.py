"""`groebner.lead_coefficients`, the one reader of lead coefficients over
Q(u), against the two readers that the validator and the GTZ split kept
before it (`tests/oracles.py`), on every input those callers reach."""

from math import prod
from pathlib import Path

import pytest

from primarydec import decompose, verify
from primarydec.cli import parse_script, run_script
from primarydec.decompose import min_ass
from primarydec.groebner import lead_coefficients
from primarydec.polyring import (
    TERM_OVER_POSITION,
    FreeElement,
    MonomialOrder,
    RingContext,
    Submodule,
    ideal,
)

from oracles import lead_coefficient_product, split_lead_coefficient_product

TESTS = Path(__file__).parent
SCRIPTS = sorted((TESTS / "fixtures").glob("*.primdec")) + sorted(
    (TESTS / "regressions").glob("*.primdec")
)


def _recording(monkeypatch, module) -> list:
    """The (A, D) of every call of the lead_coefficients that module binds."""
    calls = []

    def record(A, D):
        calls.append((A, D))
        return lead_coefficients(A, D)

    monkeypatch.setattr(module, "lead_coefficients", record)
    return calls


def _check_against_oracles(A: Submodule, D) -> None:
    coeffs = lead_coefficients(A, D)
    assert len(set(coeffs)) == len(coeffs)
    for c in coeffs:
        assert not c.is_constant() and c.leading_coefficient() == 1
        assert not any(e[i] for _k, _comp, e, _c in c.terms for i in D)
    h = prod(coeffs, start=A.ring.one())
    assert h == lead_coefficient_product(A, D)
    if A.ambient_rank == 1 and D:
        assert h == split_lead_coefficient_product(A, D)


def test_the_validator_reads_what_its_own_reader_read(monkeypatch):
    calls = _recording(monkeypatch, verify)
    for path in SCRIPTS:
        run_script(parse_script(path.read_text()), base_dir=path.parent)
    # ideals and modules, with and without independent variables
    assert {Q.ambient_rank > 1 for Q, _D in calls} == {False, True}
    assert {len(D) < Q.ring.n for Q, D in calls} == {False, True}
    assert any(lead_coefficients(Q, D) for Q, D in calls)
    for Q, D in calls:
        _check_against_oracles(Q, D)


def _split_inputs():
    R2 = RingContext(("x", "y"))
    x, y = R2.variable(0), R2.variable(1)
    yield pytest.param(ideal(R2, [x * x - y]), id="parabola")
    R3 = RingContext(("x", "y", "z"))
    x, y, z = (R3.variable(i) for i in range(3))
    yield pytest.param(ideal(R3, [x - y * z]), id="hyperbola_over_xy")
    R4 = RingContext(("x", "y", "z", "w"))
    x, y, z, w = (R4.variable(i) for i in range(4))
    yield pytest.param(ideal(R4, [x * z - y * y, y * w - z * z, x * w - y * z]), id="twisted_cubic")
    # the coordinate axes moved to (1, 0, 0, 0), which min_ass splits, as it
    # reads the primes of a monomial ideal off its supports
    x = x - 1
    yield pytest.param(ideal(R4, [x * y, x * z, x * w, y * z, y * w, z * w]), id="axes4")


@pytest.mark.parametrize("I", list(_split_inputs()))
def test_the_split_reads_what_its_own_reader_read(monkeypatch, I):
    calls = _recording(monkeypatch, decompose)
    min_ass(I)
    assert calls
    for J, D in calls:
        _check_against_oracles(J, D)


@pytest.mark.parametrize("order", [MonomialOrder(), MonomialOrder(module_extension=TERM_OVER_POSITION)])
def test_the_lead_over_q_u_is_read_position_over_term(order):
    # over K = Q(y), (x, x*y) = x (1, y) leads with x e_0, whose coefficient
    # is 1.  Term over position would compare y, a scalar of K, before the
    # component and read x*y e_1, coefficient y, whatever the ring's order
    R = RingContext(("x", "y"), order)
    x, y = R.variable(0), R.variable(1)
    M = Submodule(R, 2, [FreeElement(R, [x, x * y])])
    assert lead_coefficients(M, (0,)) == []
    assert lead_coefficient_product(M, (0,)) == R.one()
