"""Rings whose own order is not degrevlex.

The Groebner layer computes in whatever order a caller asks for (block orders
for GTZ splits and elimination, position-over-term for syzygies), while the
results stay in the caller's ring and keep its term order.  These tests pin
that split where it shows: in lp and wp rings.
"""

from pathlib import Path

import pytest

from primarydec.cli import parse_script, render_json, run_script
from primarydec.groebner import buchberger, eliminate, module_equal
from primarydec.polyring import (
    MonomialOrder,
    RingContext,
    RingError,
    ideal,
)

ORDERS = Path(__file__).parent / "fixtures" / "orders"

ORDER_CASES = ["embedded_line", "three_monomials", "hard_three_gens"]


@pytest.mark.parametrize("order", ["lp", "wp"])
@pytest.mark.parametrize("case", ORDER_CASES)
def test_script_output_in_lp_and_wp_rings(case, order):
    # The expected JSON was derived at the commit before the order became an
    # argument of buchberger, when every order change built a new ring and
    # copied the data into it; the header line of each script says how.
    script = ORDERS / f"{case}.{order}.primdec"
    results = run_script(parse_script(script.read_text()), seed=0)
    expected = script.with_name(f"{case}.{order}.expected.json").read_text()
    assert render_json(results) == expected


LP = MonomialOrder(kind="lex")
WP = MonomialOrder(kind="degrevlex", weights=(2, 3, 1))


@pytest.mark.parametrize("order", [LP, WP], ids=["lp", "wp"])
def test_eliminate_keeps_the_callers_ring(order):
    R = RingContext(("x", "y", "z"), order)
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    I = ideal(R, [x - y**2, z - y**3])
    E = eliminate(I, [1])
    assert E.ring == R
    assert module_equal(E, ideal(R, [x**3 - z**2]))
    for g in E.generators:
        p = g.components[0]
        assert all(e[1] == 0 for _key, _comp, e, _c in p.terms)
        # terms stay sorted in the ring's own order, not the block order
        lead = max((e for _key, _comp, e, _c in p.terms), key=lambda e: R.order.term_key(0, e))
        assert p.terms[0][2] == lead


def test_block_order_basis_stays_in_the_ring():
    R = RingContext(("x", "y"), LP)
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x - y**2, x**2 * y - 1])
    G = buchberger(I, MonomialOrder(kind="block", blocks=((1,),)))
    assert G.module.ring == R
    # leading terms in the block order, y before x: x^5 and y ...
    assert G.leading_terms() == ((0, (5, 0)), (0, (0, 1)))
    # ... while the terms of each generator are sorted in lex, x first, so
    # the generator that is monic in y prints with -x^3 in front
    assert [str(g) for g in G.generators] == ["x^5 - 1", "-x^3 + y"]
    assert [str(g) for g in buchberger(I).generators] == ["y^5 - 1", "x - y^2"]
    assert buchberger(I) is buchberger(I, R.order)


def test_module_equal_needs_one_ring():
    dp = RingContext(("x", "y"))
    lp = RingContext(("x", "y"), LP)
    with pytest.raises(RingError):
        module_equal(ideal(dp, [dp.variable(0)]), ideal(lp, [lp.variable(0)]))
