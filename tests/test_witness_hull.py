"""The witness loop's hull is a lead-coefficient contraction, not the Ext hull.

For N = P^m F + A, P an associated prime of F/A, P is the only minimal prime
of F/N, so hull(N) is N's P-primary component, which `primary_component`
reads as N : h^inf (`decompose._witness_hull`).  These tests check it against
`homology.equidim_hull` on the witness sums of every fixture, order variant
and regression input, also moved into lex, weighted and block orders, and
check that the loop makes no `canon_map` call.
"""

from pathlib import Path

import pytest

from primarydec import decompose, homology
from primarydec.cli import parse_script
from primarydec.decompose import (
    _associated_primes,
    _ideal_times_module,
    _module_sum,
    _witness_hull,
    primary_component,
    primary_decomposition,
)
from primarydec.groebner import canonical, independent_sets
from primarydec.homology import equidim_hull
from primarydec.polyring import (
    POSITION_OVER_TERM,
    TERM_OVER_POSITION,
    MonomialOrder,
    RingContext,
    Submodule,
    from_terms,
    full_module,
    ideal,
    rekey,
)

TESTS = Path(__file__).resolve().parent
SCRIPTS = sorted(
    [
        *(TESTS / "fixtures").glob("*.primdec"),
        *(TESTS / "fixtures" / "orders").glob("*.primdec"),
        *(TESTS / "regressions").glob("*.primdec"),
    ]
)
MODULE_SCRIPTS = ["module_rank3.primdec", "s7_015.primdec", "s7_053.primdec"]


def _inputs(path: Path) -> list[Submodule]:
    """The distinct modules a script's commands act on."""
    script = parse_script(path.read_text())
    return list(dict.fromkeys(canonical(cmd.module) for cmd in script.statements))


def _moved(M: Submodule, order: MonomialOrder) -> Submodule:
    """M over the same variables in order."""
    ring = RingContext(M.ring.variables, order)
    gens = [
        from_terms(ring, g.rank, rekey(order, ((c, e, x) for _k, c, e, x in g.terms)), g.den)
        for g in M.generators
    ]
    return Submodule(ring, M.ambient_rank, gens)


def _check_witness_sums(A: Submodule) -> int:
    """Compare both hulls on P^m F + A for m = 1..3 at every associated prime
    P of F/A; returns the number of sums compared."""
    A = canonical(A)
    F = full_module(A.ring, A.ambient_rank)
    compared = 0
    for P in _associated_primes(A, 0):
        u = independent_sets(P)[0]
        T = F
        for _m in range(3):
            T = canonical(_ideal_times_module(P, T))
            N = canonical(_module_sum(T, A))
            assert _witness_hull(N, u) == equidim_hull(N)
            compared += 1
    return compared


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_contraction_is_the_ext_hull_on_every_witness_sum(path):
    assert sum(_check_witness_sums(A) for A in _inputs(path))


def _block(n: int, extension=POSITION_OVER_TERM) -> MonomialOrder:
    return MonomialOrder("block", blocks=(tuple(range(n - 1)),), module_extension=extension)


ORDERS = {
    "lp": lambda n: MonomialOrder(kind="lex"),
    "wp": lambda n: MonomialOrder(weights=(3, 1, 2)[:n]),
    "block": _block,
    "block_top": lambda n: _block(n, TERM_OVER_POSITION),
    "lp_top": lambda n: MonomialOrder(kind="lex", module_extension=TERM_OVER_POSITION),
}


# s7_015 is left out under term over position: there the Ext hull that the
# contraction is compared with stalls in the tagged syzygy run of canon_map
@pytest.mark.parametrize(
    "name, order",
    [
        (name, order)
        for name in MODULE_SCRIPTS
        for order in ORDERS
        if not (name == "s7_015.primdec" and order.endswith("_top"))
    ],
)
def test_contraction_is_the_ext_hull_for_modules_in_other_orders(name, order):
    # rank-3 modules in lex, weighted degrevlex and block orders, position
    # over term and term over position
    path = next(p for p in SCRIPTS if p.name == name)
    for A in _inputs(path):
        assert _check_witness_sums(_moved(A, ORDERS[order](A.ring.n)))


@pytest.mark.parametrize("name", ["three_monomials.primdec", "parabola.primdec"])
def test_contraction_is_the_ext_hull_for_ideals_in_a_block_order(name):
    path = next(p for p in SCRIPTS if p.name == name)
    for A in _inputs(path):
        assert _check_witness_sums(_moved(A, _block(A.ring.n)))


def _refuse(monkeypatch, module, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_primary_component_makes_no_canon_map_call(monkeypatch, path):
    # the associated primes come from Ext as before; only the loop is barred
    for A in _inputs(path):
        primes = _associated_primes(A, 0)
        _refuse(monkeypatch, homology, "canon_map")
        for P in primes:
            primary_component(A, P, primes=primes)
        monkeypatch.undo()


def test_primary_decomposition_makes_one_canon_map_call_for_the_input_hull(monkeypatch):
    R = RingContext(("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    calls = []
    real = homology.canon_map

    def recording(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(homology, "canon_map", recording)
    # (z^2 (x - 1)^2, x y (y - 1), x^3 z - z): a codim-2 hull that needs Ext,
    # and embedded primes whose components take several witness exponents
    I = ideal(R, [z * z * (x - 1) ** 2, x * y * (y - 1), x**3 * z - z])
    res = primary_decomposition(I)
    assert any(c.embedded for c in res.components)
    assert sum(len(c.hull_trace) for c in res.components) > len(res.components)
    assert calls == [canonical(I)]


def test_a_maximal_prime_reads_no_lead_coefficients(monkeypatch):
    R = RingContext(("x", "y"))
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x * x, x * y])
    primes = [ideal(R, [x]), canonical(ideal(R, [x, y]))]
    _refuse(monkeypatch, decompose, "lead_coefficients")
    Q, m, trace = primary_component(I, primes[1], primes=primes)
    assert (Q, m) == (canonical(ideal(R, [x * x, x * y, y * y])), 2)
    # the hull at each m is the witness sum itself, as the Ext hull gives it
    assert [h for _m, h in trace] == [primes[1], Q]
    with pytest.raises(AssertionError, match="lead_coefficients called"):
        primary_component(I, primes[0], primes=primes)
