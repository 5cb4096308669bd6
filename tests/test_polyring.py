import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from primarydec.polyring import (
    DEGREVLEX,
    KEY_BOUND,
    LEX,
    POSITION_OVER_TERM,
    TERM_OVER_POSITION,
    FreeElement,
    MonomialOrder,
    RingContext,
    RingError,
    Submodule,
    full_module,
    ideal,
    ideal_generators,
    rekey,
    render_polynomial,
    unit_vector,
)

from oracles import packed_key, written_out_key


def make_ring(names="xyz", order=None):
    return RingContext(tuple(names), order or DEGREVLEX)


def ring_key(order):
    """The key of a monomial: the term key in component 0."""
    return lambda exps: order.term_key(0, exps)


def test_degrevlex_known_comparisons():
    R = make_ring("xy")
    key = ring_key(R.order)
    # same degree: x^2 > x*y > y^2
    assert key((2, 0)) > key((1, 1)) > key((0, 2))
    # degree dominates: y^3 > x^2
    assert key((0, 3)) > key((2, 0))


def test_lex_known_comparisons():
    R = make_ring("xy", LEX)
    key = ring_key(R.order)
    assert key((1, 0)) > key((0, 5))
    assert key((1, 1)) > key((1, 0))


def test_block_order_splits_variables():
    order = MonomialOrder(kind="block", blocks=((0,),))
    R = RingContext(("t", "x", "y"), order)
    key = ring_key(R.order)
    # any positive power of t beats anything t-free
    assert key((1, 0, 0)) > key((0, 9, 9))
    # within the t-free block, degrevlex on (x, y)
    assert key((0, 2, 0)) > key((0, 1, 1))


def test_weighted_degree_order():
    order = MonomialOrder(weights=(3, 1))
    R = RingContext(("x", "y"), order)
    key = ring_key(R.order)
    # wdeg(x) = 3 beats wdeg(y^2) = 2
    assert key((1, 0)) > key((0, 2))
    assert key((0, 4)) > key((1, 0))


def test_block_order_with_explicit_groups():
    order = MonomialOrder(kind="block", blocks=((2,), (0,)))
    R = RingContext(("x", "y", "z"), order)
    key = ring_key(R.order)
    # z dominates, then x, then y
    assert key((0, 0, 1)) > key((9, 9, 0))
    assert key((1, 0, 0)) > key((0, 9, 0))
    with pytest.raises(ValueError):
        MonomialOrder(kind="block", blocks=((0,), (0, 1)))
    with pytest.raises(ValueError):
        RingContext(("x", "y"), MonomialOrder(kind="block", blocks=((5,),)))


@pytest.mark.parametrize(
    "blocks",
    [((0,),), ((3,),), ((1, 2),), ((2,), (0,)), ((0, 3), (1,)), ((3, 1, 0),), ((0, 1, 2, 3),)],
)
def test_block_keys_match_the_written_out_formula(blocks):
    from itertools import product

    order = MonomialOrder(kind="block", blocks=blocks)
    vectors = [e for e in product(range(5), repeat=4) if sum(e) <= 4]
    assert len(vectors) == 70
    for exps in vectors:
        assert order.term_key(0, exps) == packed_key(written_out_key(order, 0, exps))
    # an order is not tied to a ring: the same blocks key a larger ring too
    big = (1, 2, 3, 4, 5, 6)
    assert order.term_key(0, big) == packed_key(written_out_key(order, 0, big))


def test_a_term_at_the_key_bound_is_refused():
    bound = 2**62
    R = make_ring("xy")
    assert R.monomial((bound - 1, 0)).terms[0][2] == (bound - 1, 0)
    wp = RingContext(("x", "y"), MonomialOrder(weights=(4, 1)))
    wp.monomial((bound // 4 - 1, 3))
    wide = make_ring("abcde")
    # 5 * e is 2^64 + 4: a 64-bit digit would read 4
    wrapping = (2**64 // 5 + 1,) * 5
    for ring, exps in [
        (R, (bound, 0)),
        (R, (bound // 2, bound // 2)),
        (wp, (bound // 4, 0)),
        (wide, wrapping),
    ]:
        with pytest.raises(RingError, match=r"2\^62"):
            ring.monomial(exps)
    with pytest.raises(RingError, match=r"2\^62"):
        R.order.term_key(bound, (0, 0))


# every order kind and module extension, with and without weights, over three
# variables
_REKEY_ORDERS = [
    MonomialOrder(kind=kind, weights=weights, module_extension=extension, blocks=blocks)
    for extension in (POSITION_OVER_TERM, TERM_OVER_POSITION)
    for kind, weights, blocks in [
        ("degrevlex", None, None),
        ("degrevlex", (3, 1, 2), None),
        ("degrevlex", (1, 5, 4), None),
        ("lex", None, None),
        ("block", None, ((0,),)),
        ("block", None, ((2,), (0,))),
        ("block", None, ((1, 2),)),
    ]
]


@pytest.mark.parametrize("order", _REKEY_ORDERS, ids=repr)
def test_rekey_gives_the_term_keys_of_term_key(order):
    # rekey reads the unit keys once per call; its keys and order must be
    # term_key's, term by term
    rng = random.Random(repr(order))
    for size in (0, 1, 2, 7, 30):
        found = {
            (rng.randrange(4), tuple(rng.randrange(7) for _ in range(3))): rng.choice((1, -2, 5))
            for _ in range(size)
        }
        items = [(comp, exps, c) for (comp, exps), c in found.items()]
        rng.shuffle(items)
        expected = sorted(((order.term_key(comp, e), comp, e, c) for comp, e, c in items), reverse=True)
        assert rekey(order, iter(items)) == tuple(expected)


@pytest.mark.parametrize("order", _REKEY_ORDERS, ids=repr)
def test_rekey_and_term_key_refuse_the_same_terms(order):
    weights = order.weights or (1, 1, 1)
    # the first exponent vector of weighted degree exactly KEY_BOUND, and the
    # one just below it
    at_bound = (0, KEY_BOUND // weights[1], 0) if KEY_BOUND % weights[1] == 0 else None
    top = (0, (KEY_BOUND - 1) // weights[1], 0)
    good = (0, (1, 2, 0), 3)
    bad_terms = [(KEY_BOUND, (0, 0, 0)), (-1, (1, 0, 0))]
    if at_bound is not None:
        bad_terms.append((0, at_bound))
    # degree past 2^64, which a 64-bit digit would read modulo 2^64
    bad_terms.append((0, (2**64 // 3 + 1,) * 3))
    for comp, exps in bad_terms:
        with pytest.raises(RingError, match=r"2\^62"):
            order.term_key(comp, exps)
        for items in ([(comp, exps, 1)], [good, (comp, exps, 1)]):
            with pytest.raises(RingError, match=r"2\^62"):
                rekey(order, items)
    for comp, exps in [(KEY_BOUND - 1, (0, 0, 0)), (0, top)]:
        assert rekey(order, [good, (comp, exps, 1)]) == tuple(
            sorted(((order.term_key(c, e), c, e, x) for c, e, x in [good, (comp, exps, 1)]),
                   reverse=True)
        )


def test_a_product_that_crosses_the_key_bound_is_refused():
    bound = 2**62
    R = make_ring("xy")
    x, y = R.variable(0), R.variable(1)
    half = R.monomial((bound // 2, 0))
    for product in (
        lambda: half * half,
        lambda: (half + y) * (x * half - 1),
        lambda: half**2,
        lambda: FreeElement(R, (y, half)).scale(half),
    ):
        with pytest.raises(RingError, match=r"2\^62"):
            product()
    # just below the bound the product is exact and still ordered by degree
    p = half.scale(x ** (bound // 2 - 2)) + y * x
    assert [e for _k, _c, e, _x in p.terms] == [(bound - 2, 0), (1, 1)]


def test_substitute():
    from primarydec.polyring import substitute

    R = make_ring("xy")
    x, y = R.variable(0), R.variable(1)
    p = x**2 + y
    assert substitute(p, {0: x + y}) == (x + y) ** 2 + y
    assert substitute(p, {}) == p
    assert substitute(p, {1: R.constant(0)}) == x**2


def test_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder(kind="nope")
    with pytest.raises(ValueError):
        MonomialOrder(kind="block")
    with pytest.raises(ValueError):
        MonomialOrder(kind="lex", blocks=((0,),))
    with pytest.raises(ValueError):
        MonomialOrder(kind="lex", weights=(1, 2))
    with pytest.raises(ValueError):
        MonomialOrder(weights=(1, 0))


def test_key_is_additive():
    rng = random.Random(0)
    orders = [
        DEGREVLEX,
        LEX,
        MonomialOrder(kind="block", blocks=((0, 1),)),
        MonomialOrder(weights=(2, 1, 1, 3)),
    ]
    for order in orders:
        key = ring_key(order)
        for _ in range(200):
            a = tuple(rng.randrange(5) for _ in range(4))
            b = tuple(rng.randrange(5) for _ in range(4))
            ab = tuple(x + y for x, y in zip(a, b))
            assert key(a) + key(b) == key(ab)
            # module keys shift by the component-0 key of the factor
            assert order.term_key(3, a) + order.term_key(0, b) == order.term_key(3, ab)


@pytest.mark.parametrize("extension", [POSITION_OVER_TERM, TERM_OVER_POSITION])
@pytest.mark.parametrize(
    "order",
    [
        MonomialOrder(),
        MonomialOrder(weights=(2, 1, 1, 3)),
        MonomialOrder(kind="lex"),
        # no variable outside the blocks
        MonomialOrder(kind="block", blocks=((0, 2), (1, 3))),
        # rest variables both below and above the last block variable
        MonomialOrder(kind="block", blocks=((1,),)),
        MonomialOrder(kind="block", blocks=((2,), (0,))),
    ],
    ids=["dp", "wp", "lp", "block", "block-rest", "block-rest-below"],
)
def test_a_key_difference_is_the_addend_of_the_quotient(order, extension):
    # the engine's reduction and S-pair steps shift keys by differences of
    # keys it holds, never computing the addend itself
    order = MonomialOrder(
        kind=order.kind, weights=order.weights, blocks=order.blocks, module_extension=extension
    )
    rng = random.Random(f"{order}")
    for _ in range(300):
        b = tuple(rng.randrange(4) for _ in range(4))
        a = tuple(e + rng.randrange(4) for e in b)
        comp = rng.randrange(3)
        diff = order.term_key(comp, a) - order.term_key(comp, b)
        assert diff == order.term_key(0, tuple(x - y for x, y in zip(a, b)))


def test_key_total_and_multiplicative():
    rng = random.Random(1)
    key = ring_key(DEGREVLEX)
    monos = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(60)]
    for a in monos:
        for b in monos:
            if a != b:
                assert key(a) != key(b)
            if key(a) > key(b):
                for c in monos[:10]:
                    ac = tuple(x + y for x, y in zip(a, c))
                    bc = tuple(x + y for x, y in zip(b, c))
                    assert key(ac) > key(bc)


def test_position_over_term_prefers_low_component():
    order = DEGREVLEX
    assert order.term_key(0, (0, 0)) > order.term_key(1, (5, 5))
    top = MonomialOrder(module_extension="term-over-position")
    assert top.term_key(1, (5, 5)) > top.term_key(0, (0, 0))
    # ties broken by lower component in both conventions
    assert top.term_key(0, (1, 1)) > top.term_key(1, (1, 1))


def test_polynomial_arithmetic():
    R = make_ring("xy")
    x, y = R.variable(0), R.variable(1)
    assert (x + y) * (x + y) == x * x + 2 * x * y + y * y
    assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
    assert x - x == R.zero()
    assert (x + 1) * (x - 1) == x * x - 1
    third = R.constant(Fraction(1, 3))
    assert third * x * 3 == x
    assert [sum(e) for _key, _comp, e, _c in (x * y + 1).terms] == [2, 0]
    assert R.zero().terms == ()


def test_polynomial_ring_axioms_randomized():
    rng = random.Random(2)
    R = make_ring("xyz")

    def rand_poly():
        p = R.zero()
        for _ in range(rng.randrange(1, 5)):
            exps = tuple(rng.randrange(3) for _ in range(3))
            c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
            p = p + R.monomial(exps, c) if c else p
        return p

    for _ in range(100):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + R.zero() == a
        assert a * R.one() == a


def test_terms_stay_sorted_and_canonical():
    R = make_ring("xy")
    x, y = R.variable(0), R.variable(1)
    p = y**2 + x * y + x**2
    keys = [R.order.term_key(0, e) for _key, _comp, e, _c in p.terms]
    assert keys == sorted(keys, reverse=True)
    q = x**2 + x * y + y**2
    assert p == q and hash(p) == hash(q)


def test_render_polynomial():
    R = make_ring("xy")
    x, y = R.variable(0), R.variable(1)
    assert render_polynomial(x**2 - y) == "x^2 - y"
    assert render_polynomial(R.zero()) == "0"
    assert render_polynomial(-x + 1) == "-x + 1"
    p = Fraction(5, 2) * x * y**3 - 7
    assert render_polynomial(p) == "5/2*x*y^3 - 7"
    assert render_polynomial(R.constant(Fraction(-1, 2))) == "-1/2"


def test_render_polynomial_refuses_a_vector():
    R = make_ring("xy")
    x = R.variable(0)
    v = FreeElement(R, (x, x))
    # joined, [x, x] would read "x + x", which parses back to 2*x
    with pytest.raises(RingError):
        render_polynomial(v)
    with pytest.raises(RingError):
        render_polynomial(FreeElement(R, (x, R.zero())))
    assert [render_polynomial(p) for p in v.components] == ["x", "x"]
    assert str(v) == "[x,x]"


def test_mixed_ring_operations_rejected():
    R1 = make_ring("xy")
    R2 = make_ring("xz")
    with pytest.raises(RingError):
        R1.variable(0) + R2.variable(0)


def test_leading_term_of_vectors():
    R = make_ring("xy")
    x, y = R.variable(0), R.variable(1)
    v = FreeElement(R, (y, x**2))
    terms = [(comp, e) for _key, comp, e, _c in v.terms]

    def lead(order):
        return max(terms, key=lambda t: order.term_key(*t))

    # position over term: component 0 wins regardless of degree
    assert lead(R.order) == (0, (0, 1))
    # term over position: the larger monomial wins, whatever its component
    assert lead(MonomialOrder(module_extension="term-over-position")) == (1, (2, 0))
    # ties in the monomial go to the lower position in both conventions
    for order in (R.order, MonomialOrder(module_extension="term-over-position")):
        assert order.term_key(0, (1, 0)) > order.term_key(1, (1, 0))


def test_free_element_arithmetic():
    R = make_ring("xy")
    x, y = R.variable(0), R.variable(1)
    u = FreeElement(R, (x, y))
    v = FreeElement(R, (y, x))
    assert (u + v) - v == u
    assert u.scale(x).components == (x * x, x * y)
    assert (u - u).is_zero()
    with pytest.raises(RingError):
        u + FreeElement(R, (x,))


def test_submodule_and_ideal_wrappers():
    R = make_ring("xy")
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x**2, x * y])
    assert I.ambient_rank == 1
    assert len(I.generators) == 2
    F = full_module(R, 3)
    assert F.generators == tuple(unit_vector(R, 3, i) for i in range(3))
    Z = Submodule(R, 2, [])
    assert Z.is_zero()
    with pytest.raises(RingError):
        Submodule(R, 2, [FreeElement(R, (x,))])


def test_a_polynomial_is_a_rank_one_element():
    # one element class: an ideal's generator is the polynomial it was given,
    # so equal values compare and hash equal however they were built
    R = make_ring("xy")
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x])
    assert I.generators[0] == x and x in I.generators
    assert ideal_generators(I) == (x,)
    assert Submodule(R, 1, [x]) == I and hash(Submodule(R, 1, [x])) == hash(I)
    assert FreeElement(R, (x,)) == x
    assert x.components == (x,)
    assert FreeElement(R, (x, y)).components == (x, y)


def test_only_polynomials_multiply_and_take_powers():
    R = make_ring("xy")
    x, y = R.variable(0), R.variable(1)
    v = FreeElement(R, (x, y))
    with pytest.raises(RingError):
        v * x
    with pytest.raises(RingError):
        x * v
    with pytest.raises(TypeError):
        v**2
    assert v.scale(x) == FreeElement(R, (x * x, x * y))
    assert 2 * x == x * 2 == x + x and x**2 == x * x


def test_matrix_operations():
    R = make_ring("xy")
    x, y = R.variable(0), R.variable(1)
    # generators are the columns
    A = Submodule(R, 2, [FreeElement(R, (x, R.zero())), FreeElement(R, (y, R.one()))])
    At = A.transpose()
    assert At.ambient_rank == 2 and len(At.generators) == 2
    col0, col1 = At.generators
    assert col0.components[0] == x and col0.components[1] == y
    assert col1.components[0] == R.zero()
    I2 = full_module(R, 2)
    assert A.mul(I2).generators == A.generators
    assert I2.mul(A).generators == A.generators
    # (A.B)^T = B^T.A^T
    prod = A.mul(A)
    assert prod.transpose().generators == A.transpose().mul(A.transpose()).generators


def test_matrix_vector_consistency_randomized():
    rng = random.Random(3)
    R = make_ring("xy")

    def rand_poly():
        p = R.zero()
        for _ in range(rng.randrange(3)):
            p = p + R.monomial((rng.randrange(2), rng.randrange(2)), rng.randrange(-2, 3))
        return p

    for _ in range(30):
        A = Submodule(R, 2, [FreeElement(R, (rand_poly(), rand_poly())) for _ in range(2)])
        B = Submodule(R, 2, [FreeElement(R, (rand_poly(), rand_poly())) for _ in range(2)])
        lhs = A.mul(B).transpose()
        rhs = B.transpose().mul(A.transpose())
        assert lhs.generators == rhs.generators


def test_unit_vector():
    R = make_ring("xy")
    e1 = unit_vector(R, 3, 1)
    assert e1.components[1] == R.one()
    assert e1.components[0].is_zero() and e1.components[2].is_zero()


UNIT_KEYS_STAY_WITH_THE_RING = """
from primarydec import (
    DEGREVLEX, LEX, RingContext, ideal, min_ass, primary_decomposition, validate_decomposition
)

for order in (DEGREVLEX, LEX):
    R = RingContext(("x", "y", "z"), order)
    x, y, z = (R.variable(i) for i in range(3))
    I = ideal(R, [x**2 * y, x * z**2])
    assert validate_decomposition(I, primary_decomposition(I).components).ok
    min_ass(ideal(R, [x * x - 2, y * z - 1]))
assert DEGREVLEX._units == {} and LEX._units == {}, (DEGREVLEX._units, LEX._units)
"""


def test_a_run_leaves_the_shared_orders_without_unit_keys():
    # each ring keeps its own instance of its order, so the unit keys a run
    # derives stay with the ring, and the module constants DEGREVLEX and LEX
    # are filled by nothing at run time; a fresh process, as any earlier test
    # may have keyed terms with them directly
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", UNIT_KEYS_STAY_WITH_THE_RING],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
