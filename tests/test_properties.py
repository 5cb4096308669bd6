"""Property tests of substitution, intersection and saturation on generated input.

The examples are drawn deterministically (derandomize, no example database),
so every run checks the same inputs.
"""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from primarydec.groebner import intersect, is_sub, saturate  # noqa: E402
from primarydec.polyring import (  # noqa: E402
    FreeElement,
    RingContext,
    Submodule,
    ideal,
    substitute,
)

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
    for exps, c in p.terms:
        term = ring.constant(c)
        for i, e in enumerate(exps):
            unit = tuple(1 if j == i else 0 for j in range(ring.n))
            term = term * images.get(i, ring.monomial(unit)) ** e
        result = result + term
    return result


@PROPERTY
@given(polys, st.dictionaries(st.sampled_from([0, 1]), polys, max_size=2))
def test_substitute_matches_term_by_term_expansion(p, images):
    assert substitute(p, images) == _expand_term_by_term(p, images)
