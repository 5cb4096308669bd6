"""Property tests of the polynomial layer and the Groebner operations on generated input.

The examples are drawn deterministically (derandomize, no example database),
so every run checks the same inputs.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, prod
from operator import mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from primarydec.cli import parse_polynomial  # noqa: E402
from primarydec.decompose import _FORM_SCALES, _linear_form, _poly_of  # noqa: E402
from primarydec.groebner import (  # noqa: E402
    buchberger,
    canonical,
    intersect,
    is_sub,
    lead_coefficients,
    lift,
    saturate,
    syzygies,
)
from primarydec.polyring import (  # noqa: E402
    POSITION_OVER_TERM,
    TERM_OVER_POSITION,
    FreeElement,
    MonomialOrder,
    RingContext,
    Submodule,
    ideal,
    render_polynomial,
    substitute,
)

from oracles import lead_coefficient_product, packed_key, written_out_key  # noqa: E402

R = RingContext(("x", "y"))
_x, _y = R.variable(0), R.variable(1)
FACTORS = (_x, _y, _x - 1, _y + 1, _x + _y, _x * _y - 1, R.constant(Fraction(2, 3)))

PROPERTY = settings(derandomize=True, database=None, max_examples=12, deadline=None)

polys = st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3).map(
    lambda fs: reduce(mul, fs)
)
entries = st.one_of(polys, st.just(R.zero()))
ideals = st.lists(polys, min_size=0, max_size=2).map(lambda ps: ideal(R, ps))


def modules(rank: int):
    vectors = st.lists(entries, min_size=rank, max_size=rank).map(
        lambda comps: FreeElement(R, comps)
    )
    return st.lists(vectors, min_size=1, max_size=3).map(
        lambda gens: Submodule(R, rank, gens)
    )


any_module = st.one_of(modules(1), modules(2))
module_pairs = st.sampled_from([1, 2]).flatmap(
    lambda r: st.tuples(modules(r), modules(r))
)


@PROPERTY
@given(module_pairs)
def test_intersection_lies_in_both(pair):
    A, B = pair
    C = intersect(A, B)
    assert is_sub(C, A) and is_sub(C, B)


@PROPERTY
@given(any_module, ideals)
def test_module_lies_in_its_saturation(A, J):
    assert is_sub(A, saturate(A, J))


@PROPERTY
@given(any_module, ideals)
def test_saturation_is_idempotent(A, J):
    S = saturate(A, J)
    assert saturate(S, J) == S


def _expand_term_by_term(p, images):
    """Reference substitution: each term's powers computed afresh, summed one by one."""
    ring = p.ring
    result = ring.zero()
    for _key, _comp, exps, c in p.terms:
        term = ring.constant(Fraction(c, p.den))
        for i, e in enumerate(exps):
            unit = tuple(1 if j == i else 0 for j in range(ring.n))
            term = term * images.get(i, ring.monomial(unit)) ** e
        result = result + term
    return result


@PROPERTY
@given(polys, st.dictionaries(st.sampled_from([0, 1]), polys, max_size=2))
def test_substitute_matches_term_by_term_expansion(p, images):
    assert substitute(p, images) == _expand_term_by_term(p, images)


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero_fractions = fractions.filter(bool)
rational_polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), fractions), max_size=4
).map(lambda ts: sum((R.monomial(e, c) for e, c in ts), R.zero()))


@PROPERTY
@given(rational_polys)
def test_render_then_parse_is_the_identity(p):
    assert parse_polynomial(R, render_polynomial(p)) == p


@PROPERTY
@given(any_module, st.data())
def test_canonical_ignores_generator_order_and_rational_scaling(A, data):
    gens = A.generators
    perm = data.draw(st.permutations(range(len(gens))))
    scales = data.draw(st.lists(nonzero_fractions, min_size=len(gens), max_size=len(gens)))
    B = Submodule(R, A.ambient_rank, [gens[i].scale(c) for i, c in zip(perm, scales)])
    assert canonical(B) == canonical(A)


@PROPERTY
@given(any_module, st.data())
def test_lift_solves_for_combinations_of_the_generators(A, data):
    g = len(A.generators)
    coeffs = st.lists(entries, min_size=g, max_size=g).map(lambda cs: FreeElement(R, cs))
    C = Submodule(R, g, data.draw(st.lists(coeffs, min_size=1, max_size=2)))
    B = A.mul(C)
    assert A.mul(lift(A, B)) == B


def _assert_stored_canonically(v):
    assert v.den > 0
    assert gcd(v.den, *(c for _k, _comp, _e, c in v.terms)) == 1
    keys = [k for k, _comp, _e, _c in v.terms]
    assert keys == sorted(set(keys), reverse=True)
    for k, comp, e, c in v.terms:
        assert type(c) is int and c != 0
        assert k == v.ring.order.term_key(comp, e)


BLOCK = MonomialOrder(kind="block", blocks=((1,),))


@PROPERTY
@given(any_module, rational_polys)
def test_stored_terms_are_keyed_sorted_and_in_lowest_terms(A, p):
    made = [p, p * p - p, -p]
    for v in A.generators:
        made += [v, v + v.scale(p), v - v.scale(Fraction(1, 3)), *v.components]
    for M in (canonical(A), buchberger(A, BLOCK).module, syzygies(A), A.transpose()):
        made += M.generators
    for v in made:
        _assert_stored_canonically(v)


KEY_ORDERS = [
    MonomialOrder(kind=kind, weights=weights, blocks=blocks, module_extension=extension)
    for kind, weights, blocks in [
        ("degrevlex", None, None),
        ("degrevlex", (3, 1, 2, 5), None),
        ("lex", None, None),
        ("block", None, ((1, 3),)),
        ("block", None, ((2,), (0,))),
    ]
    for extension in (POSITION_OVER_TERM, TERM_OVER_POSITION)
]
# exponents up to 2^56 keep a product's weighted degree below 2^62
exponent = st.one_of(st.integers(0, 4), st.integers(0, 2**56))
module_terms = st.tuples(st.integers(0, 3), st.tuples(*[exponent] * 4))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(KEY_ORDERS), module_terms, module_terms)
def test_int_keys_order_and_add_as_the_written_out_digits(order, a, b):
    (ca, ea), (cb, eb) = a, b
    ka, kb = order.term_key(ca, ea), order.term_key(cb, eb)
    da, db = written_out_key(order, ca, ea), written_out_key(order, cb, eb)
    assert (ka, kb) == (packed_key(da), packed_key(db))
    assert (ka < kb) == (da < db)
    assert (ka == kb) == (a == b)
    product = tuple(x + y for x, y in zip(ea, eb))
    assert order.term_key(ca, product) == ka + order.term_key(0, eb)


FORM_RINGS = (
    RingContext(("x", "y")),
    RingContext(("x", "y", "z")),
    RingContext(("x", "y", "z", "w"), MonomialOrder(kind="lex")),
)


@st.composite
def forms(draw):
    """(ring, D, d, c) of a form x_d + sum_k c^k x_(others[k]) of min_ass."""
    ring = draw(st.sampled_from(FORM_RINGS))
    D = tuple(sorted(draw(st.sets(st.integers(0, ring.n - 1), min_size=1))))
    return ring, D, draw(st.sampled_from(D)), draw(st.sampled_from(_FORM_SCALES))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(forms(), st.lists(fractions, min_size=1, max_size=9))
def test_forms_and_split_generators_equal_their_built_up_values(form, coeffs):
    # min_ass builds each form, and each f(l) it splits along, in one
    # construction; they equal the sum of variables and Horner's rule
    ring, D, d, c = form
    l = _linear_form(ring, D, d, c)
    others = [i for i in D if i != d]
    assert l == ring.variable(d) + sum(ring.variable(o) * c**k for k, o in enumerate(others, 1))
    horner = ring.zero()
    for a in reversed(coeffs):
        horner = horner * l + a
    assert _poly_of(l, coeffs) == horner


LEAD_RINGS = (
    RingContext(("x", "y", "z")),
    RingContext(("x", "y", "z"), MonomialOrder(kind="lex")),
    RingContext(("x", "y", "z"), MonomialOrder(weights=(3, 1, 2))),
    RingContext(("x", "y", "z"), MonomialOrder(module_extension=TERM_OVER_POSITION)),
)


@st.composite
def rank_two_modules(draw):
    """(M, D): a rank-2 module over one of LEAD_RINGS and a set of variables."""
    ring = draw(st.sampled_from(LEAD_RINGS))
    x, y, z = (ring.variable(i) for i in range(3))
    factors = (x, y, z, x - 1, y + z, x * z - 2, y * y + x)
    entry = st.one_of(
        st.just(ring.zero()),
        st.lists(st.sampled_from(factors), min_size=1, max_size=2).map(
            lambda fs: reduce(mul, fs)
        ),
    )
    gens = draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=1, max_size=3))
    D = tuple(sorted(draw(st.sets(st.integers(0, 2)))))
    return Submodule(ring, 2, [FreeElement(ring, g) for g in gens]), D


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(rank_two_modules())
def test_lead_coefficients_multiply_to_the_validators_old_h(case):
    # the one reader of lead coefficients over Q(u), in position over term
    # whatever the ring's own module extension, against the reader the
    # validator kept before it
    M, D = case
    coeffs = lead_coefficients(M, D)
    assert prod(coeffs, start=M.ring.one()) == lead_coefficient_product(M, D)
