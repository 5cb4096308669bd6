import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

from primarydec import decompose, groebner
from primarydec.cli import Command, parse_script, run_script
from primarydec.decompose import (
    Component,
    DecompositionError,
    DecompositionResult,
    _CertificationFailure,
    _associated_primes,
    _minimalize,
    _FORM_SCALES,
    _Search,
    _linear_form,
    _normal_form_minpoly,
    _standard_count,
    _zero_dim_primes,
    localize_module,
    min_ass,
    primary_component,
    primary_decomposition,
    rendered_generators,
)
from primarydec.groebner import (
    GroebnerBasis,
    annihilator,
    buchberger,
    canonical,
    codim,
    intersect,
    intersect_many,
    is_sub,
    is_unit_ideal,
    module_equal,
    saturate,
)
from primarydec.homology import ass_prim_codim, equidim_hull, ext_module
from primarydec.polyring import (
    FreeElement,
    MonomialOrder,
    RingContext,
    RingError,
    Submodule,
    ideal,
    ideal_generators,
    render_polynomial,
    substitute,
)
from primarydec.unifactor import univariate_factor
from primarydec.verify import validate_decomposition

import pytest

from oracles import fraction_minpoly, minpoly_data

FIXTURES = Path(__file__).parent / "fixtures"


def ring2() -> RingContext:
    return RingContext(("x", "y"), MonomialOrder(kind="degrevlex"))


def ring3() -> RingContext:
    return RingContext(("x", "y", "z"), MonomialOrder(kind="degrevlex"))


def itext(A: Submodule) -> list[str]:
    return [render_polynomial(g.components[0]) for g in canonical(A).generators]


def primes_text(primes) -> list[list[str]]:
    return [itext(P) for P in primes]


def test_min_ass_principal_monomial():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert primes_text(min_ass(ideal(R, [x * y]))) == [["x"], ["y"]]


def test_min_ass_drops_embedded_prime():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert primes_text(min_ass(ideal(R, [x * x, x * y]))) == [["x"]]


def test_min_ass_unit_and_zero():
    R = ring2()
    assert min_ass(ideal(R, [R.one()])) == []
    assert primes_text(min_ass(Submodule(R, 1, []))) == [[]]


def test_min_ass_product_of_coprime_factors():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    f = (x * x - 2) * (y * y - 3)
    assert primes_text(min_ass(ideal(R, [f]))) == [["x^2 - 2"], ["y^2 - 3"]]


def test_min_ass_zero_dimensional_split():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x * x - 2, y * y - 2])
    got = primes_text(min_ass(I))
    assert got == [["x + y", "y^2 - 2"], ["x - y", "y^2 - 2"]]


def test_min_ass_certifies_parabola_prime():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x * x - y])
    assert primes_text(min_ass(I)) == [["x^2 - y"]]


def test_min_ass_irreducible_quadric():
    R = ring2()
    x = R.variable(0)
    assert primes_text(min_ass(ideal(R, [x * x + 1]))) == [["x^2 + 1"]]


def test_min_ass_three_axes():
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    I = ideal(R, [x * x * y, x * z * z, y * y * z])
    got = primes_text(min_ass(I))
    assert got == [["y", "x"], ["z", "x"], ["z", "y"]]


def test_min_ass_deterministic_across_seeds():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x * x - 2, y * y - 2])
    assert primes_text(min_ass(I, seed=0)) == primes_text(min_ass(I, seed=3))


@pytest.mark.parametrize(
    "n, expected",
    [
        (2, [["x + y + 1"], ["x - 2*y - 2"]]),
        (3, [["x + y + 1"], ["x + y + z"], ["x - 2*y - 2"]]),
    ],
)
def test_min_ass_of_line_products_through_coordinate_shears(n, expected):
    # Over Q(y) the minimal polynomial of x factors, but its coefficients
    # depend on y, so no linear form splits the ideal and min_ass falls back to
    # coordinate shears.  The primes are pinned, not the number of shears,
    # which a stronger certificate may bring to zero.
    R = RingContext(("x", "y", "z")[:n], MonomialOrder(kind="degrevlex"))
    x, y = R.variable(0), R.variable(1)
    f = (x + y + 1) * (-x + 2 * y + 2)
    if n == 3:
        f = f * (x + y + R.variable(2))
    assert primes_text(min_ass(ideal(R, [f]), seed=0)) == expected


def _count_shears(monkeypatch) -> list:
    """Record every _apply_shear call."""
    calls = []
    real = decompose._apply_shear

    def record(I, i, j, lam):
        calls.append((i, j, lam))
        return real(I, i, j, lam)

    monkeypatch.setattr(decompose, "_apply_shear", record)
    return calls


@pytest.mark.parametrize("n, shears", [(2, 8), (3, 16)])
def test_min_ass_exhausting_the_shear_budget_raises_after_bounded_shears(
    monkeypatch, n, shears
):
    # no linear form settles x*y*(x + y) over Q(y), and no single shear makes
    # it certifiable.  In Q[x, y] the schedule of its one shear pair runs out
    # after 8; in Q[x, y, z] the budget of 16 stops it.  Without one budget for
    # the whole call the shears nested per level and did not finish.
    calls = _count_shears(monkeypatch)
    R = RingContext(("x", "y", "z")[:n], MonomialOrder(kind="degrevlex"))
    x, y = R.variable(0), R.variable(1)
    with pytest.raises(DecompositionError, match=f"after {shears} coordinate shears"):
        min_ass(ideal(R, [x * y * (x + y)]))
    assert len(calls) == shears


@pytest.mark.parametrize("seed, shears", enumerate((2, 1, 1, 7, 6, 5, 4, 3)))
def test_line_product_answers_at_every_seed(monkeypatch, seed, shears):
    # the seed rotates the shear schedule (1, -1, 2, -2, 3, -3, 5, -5); the
    # single shears by -1 and by 2 certify, and a sheared ideal makes no
    # shears of its own, so every rotation reaches one of them
    calls = _count_shears(monkeypatch)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    f = (x + y + 1) * (-x + 2 * y + 2)
    assert primes_text(min_ass(ideal(R, [f]), seed)) == [
        ["x + y + 1"],
        ["x - 2*y - 2"],
    ]
    # each of the two lines is sheared back once
    assert len(calls) == shears + 2


def _no_shears(monkeypatch):
    """Make any coordinate shear fail the test."""

    def refuse(*args):
        raise AssertionError(f"coordinate shear {args[1:]}")

    monkeypatch.setattr(decompose, "_apply_shear", refuse)


@pytest.mark.parametrize("s", [2, 3])
def test_sqrt_cube_splits_by_linear_forms_without_shears(monkeypatch, s):
    _no_shears(monkeypatch)
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    got = primes_text(min_ass(ideal(R, [x * x - s, y * y - s, z * z - s])))
    assert got == [
        ["y + z", "x + z", f"z^2 - {s}"],
        ["y + z", "x - z", f"z^2 - {s}"],
        ["y - z", "x + z", f"z^2 - {s}"],
        ["y - z", "x - z", f"z^2 - {s}"],
    ]


def test_linear_form_of_lower_degree_than_the_quotient_is_refused(monkeypatch):
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    J = canonical(ideal(R, [x * x - 2, y * y - 2, z * z - 2]))
    G = buchberger(J)
    assert len(_normal_form_minpoly(G, x + y + z, 8)) - 1 == 4
    assert _standard_count([lead for _comp, lead in G.leading_terms()]) == 8
    # even when every minimal polynomial is taken as irreducible, forms of
    # degree 2 (c = 0) and 4 (c = 1, x + y + z) against dim 8 certify nothing
    monkeypatch.setattr(decompose, "univariate_factor", lambda c: [(tuple(c), 1)])
    monkeypatch.setattr(decompose, "_FORM_SCALES", (0, 1))
    tried = []

    def counting(G, l, dim):
        tried.append(l)
        return _normal_form_minpoly(G, l, dim)

    monkeypatch.setattr(decompose, "_normal_form_minpoly", counting)
    with pytest.raises(_CertificationFailure):
        _zero_dim_primes(J, (), _Search(0))
    # c = 1 gives x + y + z for every d; it is tried once
    assert tried == [x, y, z, x + y + z]


def _vanishing_grid(n: int, roots) -> Submodule:
    R = ring3() if n == 3 else ring2()
    gens = [prod((R.variable(i) - r for r in roots), start=R.one()) for i in range(n)]
    return ideal(R, gens)


def _random_univariate_products(rng: random.Random) -> Submodule:
    """f_i(x_i) for each variable, each f_i a product of one or two linear or
    quadratic factors."""
    R = ring3() if rng.random() < 0.5 else ring2()
    gens = []
    for i in range(R.n):
        v, f = R.variable(i), R.one()
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.6:
                f = f * (v - rng.choice((-2, -1, 1, 2, Fraction(1, 2))))
            else:
                f = f * (v * v - rng.choice((-1, 2, 3, 5)))
        gens.append(f)
    return ideal(R, gens)


def _zero_dimensional_ideals():
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    yield "grid9", _vanishing_grid(2, (1, -1, 2))
    yield "grid8", _vanishing_grid(3, (1, -2))
    yield "sqrt_cube", ideal(R, [x * x - 3, y * y - 3, z * z - 3])
    yield "cyclic3", ideal(R, [x + y + z, x * y + y * z + z * x, x * y * z - 1])
    yield "katsura3", ideal(
        R, [x + 2 * y + 2 * z - 1, x * x + 2 * y * y + 2 * z * z - x, 2 * x * y + 2 * y * z - y]
    )
    rng = random.Random(5)
    for k in range(6):
        yield f"products{k}", _random_univariate_products(rng)


def _twisted_cubic() -> Submodule:
    R = RingContext(("x", "y", "z", "w"))
    x, y, z, w = (R.variable(i) for i in range(4))
    return ideal(R, [x * z - y * y, y * w - z * z, x * w - y * z])


def _function_field_ideals():
    """Ideals that min_ass splits along a nonempty independent set u, each
    flagged True when every form's minimal polynomial over Q(u) depends on
    u; the others have forms with rational ones, and some also without."""
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    yield "sqrt2_over_z", ideal(R, [x * x - 2, y * y - 2]), False
    yield "sum_over_u", ideal(R, [(x + y) ** 2 - 8, x * z - y - 2]), False
    yield "shifted_sum_over_u", ideal(R, [(x + y) ** 2 - 8, x - y - 2 * z]), False
    yield "hyperbola_over_xy", ideal(R, [x - y * z]), True
    yield "twisted_cubic", _twisted_cubic(), True


def _zero_dim_inputs(I: Submodule, monkeypatch) -> list:
    """The (J, u) of every `_zero_dim_primes` call that min_ass(I) makes."""
    calls = []
    real = decompose._zero_dim_primes

    def record(J, u, search):
        calls.append((J, u))
        return real(J, u, search)

    with monkeypatch.context() as m:
        m.setattr(decompose, "_zero_dim_primes", record)
        min_ass(I)
    return calls


def _minpoly_setting(J: Submodule, u: tuple):
    """(G, dim, D) as `_zero_dim_primes` takes them for (J, u): the basis
    that normal forms are taken against, dim_K K[x_D]/J and the dependent
    variables."""
    R = J.ring
    D = tuple(i for i in range(R.n) if i not in u)
    dim_order = MonomialOrder(kind="block", blocks=(D,)) if u else R.order
    leads = [lead for _comp, lead in buchberger(J, dim_order).leading_terms()]
    dim = _standard_count([tuple(lead[i] for i in D) for lead in leads])
    G = buchberger(J, MonomialOrder(kind="block", blocks=(u,))) if u else buchberger(J)
    return G, dim, D


def _compare_with_elimination(J: Submodule, u: tuple) -> list:
    """For every form that _zero_dim_primes may try on (J, u), the
    normal-form minimal polynomial equals the one that the block-order basis
    of the sheared ideal yields; returns those polynomials."""
    R = J.ring
    G, dim, D = _minpoly_setting(J, u)
    found = []
    for c in _FORM_SCALES:
        for d in D:
            x = R.variable(d)
            tail = sum(R.variable(o) * c**k for k, o in enumerate((i for i in D if i != d), 1))
            sheared = ideal(R, [substitute(g, {d: x - tail}) for g in ideal_generators(J)])
            nf = _normal_form_minpoly(G, x + tail, dim)
            assert minpoly_data(sheared, D, d) == nf, (c, d)
            found.append(nf)
    return found


@pytest.mark.parametrize(
    "I", [pytest.param(I, id=name) for name, I in _zero_dimensional_ideals()]
)
def test_normal_form_minimal_polynomial_equals_the_block_order_one(I):
    assert None not in _compare_with_elimination(canonical(I), ())


@pytest.mark.parametrize(
    "I, u_dependent",
    [pytest.param(I, dep, id=name) for name, I, dep in _function_field_ideals()],
)
def test_normal_form_minimal_polynomial_over_q_u_equals_the_block_order_one(
    monkeypatch, I, u_dependent
):
    # over Q(u) the block-order side yields None when the minimal polynomial
    # depends on u, and so must the normal forms, which stop after dim + 1
    # powers; every (J, u) that min_ass meets is compared, splits included
    calls = [(J, u) for J, u in _zero_dim_inputs(I, monkeypatch) if u]
    assert calls
    found = [p for J, u in calls for p in _compare_with_elimination(J, u)]
    if u_dependent:
        assert set(found) == {None}
    else:
        assert set(found) - {None}


def _minpoly_oracle_ideals():
    """Inputs for the fraction-free minimal polynomials, each flagged True
    when its forms are taken against a block-order basis with u nonempty."""
    R, S = ring3(), ring2()
    x, y, z = (R.variable(i) for i in range(3))
    u, v = S.variable(0), S.variable(1)
    sd8 = u**8 - 40 * u**6 + 352 * u**4 - 960 * u**2 + 576
    yield "grid4", _vanishing_grid(3, (1, 2, 3, 4)), False
    yield "sqrt2_cube", ideal(R, [x * x - 2, y * y - 2, z * z - 2]), False
    yield "sd8", ideal(S, [sd8 * (u * u - 2), v**3 - u]), False
    yield "cyclic3", ideal(R, [x + y + z, x * y + y * z + z * x, x * y * z - 1]), False
    yield "katsura3", ideal(
        R, [x + 2 * y + 2 * z - 1, x * x + 2 * y * y + 2 * z * z - x, 2 * x * y + 2 * y * z - y]
    ), False
    yield "twisted_cubic", _twisted_cubic(), True
    yield "hyperbola_over_xy", ideal(R, [x - y * z]), True


@pytest.mark.parametrize(
    "I, over_q_u", [pytest.param(I, q_u, id=name) for name, I, q_u in _minpoly_oracle_ideals()]
)
def test_fraction_free_minimal_polynomials_equal_elimination_over_q(monkeypatch, I, over_q_u):
    # every (G, l, dim) that min_ass(I) reaches, and at each (J, u) that
    # `_zero_dim_primes` meets the first form for every c, up to c = 5, whose
    # integer rows grow the most: twisted_cubic and hyperbola_over_xy reach
    # no form, but their (J, u) have u nonempty and a block-order G
    reached = []
    real = decompose._normal_form_minpoly

    def record(G, l, dim):
        reached.append((G, l, dim))
        return real(G, l, dim)

    monkeypatch.setattr(decompose, "_normal_form_minpoly", record)
    cases = []
    for J, u in _zero_dim_inputs(I, monkeypatch):
        G, dim, D = _minpoly_setting(J, u)
        scales = _FORM_SCALES if len(D) > 1 else (0,)
        cases += [(G, _linear_form(J.ring, D, D[0], c), dim) for c in scales]
    cases += reached
    assert cases and any(G.order != G.ring.order for G, _l, _dim in cases) == over_q_u
    for G, l, dim in cases:
        assert real(G, l, dim) == fraction_minpoly(G, l, dim), (str(l), dim)


def test_normal_forms_stop_after_dim_plus_one_powers(monkeypatch):
    # the twisted cubic over Q(x, w): the quotient has dimension 3 (y^3 =
    # x^2 w), but J cap Q[y, z] = 0, so no power of a form in y and z has a
    # dependent normal form, and the search gives up after l^0 .. l^3.
    # min_ass still finds the cubic prime, along another independent set
    _no_shears(monkeypatch)
    assert primes_text(min_ass(_twisted_cubic())) == [["z^2 - y*w", "y*z - x*w", "y^2 - x*z"]]
    J = canonical(_twisted_cubic())
    R = J.ring
    y, z = R.variable(1), R.variable(2)
    u, D = (0, 3), (1, 2)
    GD = buchberger(J, MonomialOrder(kind="block", blocks=(D,)))
    leads = [lead for _comp, lead in GD.leading_terms()]
    assert _standard_count([tuple(lead[i] for i in D) for lead in leads]) == 3
    G = buchberger(J, MonomialOrder(kind="block", blocks=(u,)))
    assert all(lead[0] or lead[3] for _comp, lead in G.leading_terms())

    # each power is reduced on G's own terms, through GroebnerBasis._reduce_terms
    reductions = []
    reduce_terms = GroebnerBasis._reduce_terms

    def counting(basis, terms):
        reductions.append(basis)
        return reduce_terms(basis, terms)

    monkeypatch.setattr(GroebnerBasis, "_reduce_terms", counting)
    for l in (y, z, y + z, y - 2 * z):
        reductions.clear()
        assert _normal_form_minpoly(G, l, 3) is None
        # NF(1) = 1; l, l^2 and l^3 are reduced, by G
        assert reductions == [G] * 3
    # that basis has no u-free element, so _zero_dim_primes tries no form
    _refuse(monkeypatch, "_normal_form_minpoly")
    with pytest.raises(_CertificationFailure):
        _zero_dim_primes(J, u, _Search(0))


def test_each_block_order_derives_its_unit_keys_once_per_ring(monkeypatch):
    # the four coordinate axes in 4-space, moved to (1, 0, 0, 0) so that the
    # ideal is not monomial: each independent set u = (d) goes through
    # `_gtz_split` and then `_zero_dim_primes`, which rank the other three
    # variables first through one order
    R = RingContext(("x", "y", "z", "w"))
    x, y, z, w = (R.variable(i) for i in range(4))
    x = x - 1
    I = ideal(R, [x * y, x * z, x * w, y * z, y * w, z * w])
    derived = []
    original = MonomialOrder._derive_units

    def counting(order, n):
        derived.append(order.blocks)
        return original(order, n)

    monkeypatch.setattr(MonomialOrder, "_derive_units", counting)
    assert len(min_ass(I)) == 4
    # (other orders, such as the engine's tag order, may derive theirs here too)
    three_first = sorted(blocks for blocks in derived if blocks and len(blocks[0]) == 3)
    assert three_first == [((0, 1, 2),), ((0, 1, 3),), ((0, 2, 3),), ((1, 2, 3),)]
    # the axes moved on to (2, 0, 0, 0): new runs in the same four orders,
    # which the ring has made already
    del derived[:]
    x = x - 1
    assert len(min_ass(ideal(R, [x * y, x * z, x * w, y * z, y * w, z * w]))) == 4
    assert derived == []


def test_each_polynomial_is_factored_once_per_min_ass_call(monkeypatch):
    # f(x), y^2 - 2, z^2 - 3, f vanishing at 1, 2, 3, 4: y's minimal polynomial
    # is irreducible, so the split along f recurses, and every branch meets
    # y^2 - 2 again and then z^2 - 3, yet each distinct polynomial is factored
    # once.  A second call factors afresh: nothing outlives the call that
    # made it.
    calls, lookups = [], []

    def recording_factor(coeffs):
        calls.append(tuple(coeffs))
        return univariate_factor(coeffs)

    def recording_lookup(self, coeffs, _real=_Search.factor):
        lookups.append(coeffs)
        return _real(self, coeffs)

    monkeypatch.setattr(decompose, "univariate_factor", recording_factor)
    monkeypatch.setattr(_Search, "factor", recording_lookup)
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    f = prod((x - r for r in (1, 2, 3, 4)), start=R.one())
    I = ideal(R, [f, y * y - 2, z * z - 3])
    assert len(min_ass(I)) == 4
    first = list(calls)
    # f, y^2 - 2, z^2 - 3, the four x - r and the four quartics of x + y + z
    assert len(first) == len(set(first)) == 11
    # y^2 - 2 is met at the top and again in each of the four branches
    assert lookups.count((Fraction(-2), Fraction(0), Fraction(1))) >= 5
    calls.clear()
    assert len(min_ass(I)) == 4
    assert calls == first


def test_non_radical_zero_dimensional_ideal_splits_on_a_repeated_factor(monkeypatch):
    _no_shears(monkeypatch)
    factorizations = []

    def recording_factor(coeffs):
        factorizations.append(univariate_factor(coeffs))
        return factorizations[-1]

    monkeypatch.setattr(decompose, "univariate_factor", recording_factor)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    got = primes_text(min_ass(ideal(R, [(x * x - 2) ** 2, y - x])))
    assert got == [["x - y", "y^2 - 2"]]
    # the first minimal polynomial is (x^2 - 2)^2: one factor of multiplicity 2
    assert factorizations[0] == [((-2, 0, 1), 2)]


def test_a_form_certifies_where_no_variable_has_a_rational_minimal_polynomial(
    monkeypatch,
):
    # over Q(z) the minimal polynomials of x and y depend on z, but x + y has
    # t^2 - 8, irreducible of the quotient's degree 2: both ideals are prime
    _no_shears(monkeypatch)
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    I = ideal(R, [(x + y) ** 2 - 8, x * z - y - 2])
    assert min_ass(I) == [canonical(I)]
    I = ideal(R, [(x + y) ** 2 - 8, x - y - 2 * z])
    assert primes_text(min_ass(I)) == [["x - y - 2*z", "y^2 + 2*y*z + z^2 - 2"]]


def _refuse(monkeypatch, *names):
    """Make any call to the named decompose functions fail the test."""
    for name in names:

        def refuse(*args, _name=name):
            raise AssertionError(f"{_name} called")

        monkeypatch.setattr(decompose, name, refuse)


def test_linear_forms_over_a_function_field_split_the_ideal(monkeypatch):
    # over Q(z) the quotient by (x^2 - 2, y^2 - 2) has dimension 4, and x and y
    # have minimal polynomials of degree 2; the form x + y has t^3 - 8t, which
    # splits.  Its polynomial comes from normal forms, with no sheared ideal
    _no_shears(monkeypatch)
    _refuse(monkeypatch, "substitute")
    R = ring3()
    x, y = R.variable(0), R.variable(1)
    got = primes_text(min_ass(ideal(R, [x * x - 2, y * y - 2])))
    assert got == [["x + y", "y^2 - 2"], ["x - y", "y^2 - 2"]]


@pytest.mark.parametrize("name", ["sqrt_cube", "grid27"])
def test_zero_dimensional_input_makes_no_lead_coefficient_pass(monkeypatch, name):
    # with no independent variable every lead coefficient is rational: the
    # split reads none, under the name decompose binds
    _refuse(monkeypatch, "lead_coefficients")
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    if name == "sqrt_cube":
        I, count = ideal(R, [x * x - 3, y * y - 3, z * z - 3]), 4
    else:
        I, count = _vanishing_grid(3, (1, -1, 2)), 27
    assert len(min_ass(I)) == count


def test_a_rational_point_is_prime_without_a_minimal_polynomial(monkeypatch):
    # its quotient is Q itself, dimension 1
    _refuse(monkeypatch, "_normal_form_minpoly", "univariate_factor")
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    got = primes_text(min_ass(ideal(R, [x - 1, y + 2, z - 3])))
    assert got == [["z - 3", "y + 2", "x - 1"]]


def test_a_quotient_of_dimension_one_over_q_u_needs_no_minimal_polynomial(monkeypatch):
    # over Q(x, y), x - y*z leaves the quotient Q(x, y) itself
    _refuse(monkeypatch, "_normal_form_minpoly")
    sets = []
    real = decompose._gtz_split

    def record(I, u, search):
        sets.append(u)
        return real(I, u, search)

    monkeypatch.setattr(decompose, "_gtz_split", record)
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    assert primes_text(min_ass(ideal(R, [x - y * z]))) == [["y*z - x"]]
    assert sets == [(0, 1)]


def _box_count(leads) -> int:
    """Standard monomials counted over the box of the pure-power bounds."""
    bounds = [
        min(m[i] for m in leads if m[i] and sum(m) == m[i]) for i in range(len(leads[0]))
    ]
    return sum(
        1
        for m in product(*(range(b) for b in bounds))
        if not any(all(a <= b for a, b in zip(lead, m)) for lead in leads)
    )


def test_standard_count_walk_matches_the_box_count():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 4)
        leads = [tuple(rng.randint(1, 6) if j == i else 0 for j in range(n)) for i in range(n)]
        leads += [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        leads = [m for m in leads if any(m)]
        assert _standard_count(leads) == _box_count(leads), leads
    # x^100, y^100, z^100, xy, xz, yz: the box holds 10^6 monomials, the
    # quotient 298 standard ones
    sparse = [(100, 0, 0), (0, 100, 0), (0, 0, 100), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert _standard_count(sparse) == 298
    with pytest.raises(_CertificationFailure):
        _standard_count([(2, 0), (1, 1)])


def test_fixtures_make_no_coordinate_shears(monkeypatch):
    _no_shears(monkeypatch)
    scripts = sorted(FIXTURES.glob("*.primdec")) + sorted(
        FIXTURES.glob("orders/*.primdec")
    )
    assert len(scripts) == 12
    for script in scripts:
        run_script(parse_script(script.read_text()), seed=0, base_dir=script.parent)


def test_minimalize_keeps_minimal_primes_in_height_order():
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    primes = [
        ideal(R, [x, y]),
        ideal(R, [y]),
        ideal(R, [x]),
        ideal(R, [x, z]),
        ideal(R, [x]),
    ]
    assert primes_text(_minimalize(primes)) == [["x"], ["y"]]


def test_minimalize_keeps_primes_of_equal_height_without_containment_tests(
    monkeypatch,
):
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    calls = []

    def counting_is_sub(A, B):
        calls.append((A, B))
        return is_sub(A, B)

    monkeypatch.setattr(decompose, "is_sub", counting_is_sub)
    primes = [ideal(R, [y, z]), ideal(R, [x - 1, y]), ideal(R, [x, z])]
    assert primes_text(_minimalize(primes)) == [
        ["y", "x - 1"],
        ["z", "x"],
        ["z", "y"],
    ]
    assert calls == []


def test_minimalize_drops_a_prime_over_a_lower_one():
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    primes = [ideal(R, [x, y, z - 2]), ideal(R, [y, z - 2]), ideal(R, [x - 1])]
    assert primes_text(_minimalize(primes)) == [["x - 1"], ["z - 2", "y"]]


def test_min_ass_minimalizes_once_over_a_splitting_input(monkeypatch):
    # the splits return candidate primes; min_ass alone prunes and sorts them
    calls = []
    real = decompose._minimalize

    def record(primes):
        calls.append(None)
        return real(primes)

    monkeypatch.setattr(decompose, "_minimalize", record)
    R = ring3()
    I = ideal(R, [R.variable(i) ** 3 - R.variable(i) for i in range(3)])
    primes = min_ass(I)
    assert len(calls) == 1
    assert len(primes) == 27
    assert all(codim(P) == 3 for P in primes)
    assert primes == sorted(primes, key=lambda P: itext(P))


def test_min_ass_tests_independence_by_the_split_alone(monkeypatch):
    # the lead-based set {y} of x^2 - y fails and {x} certifies; {x} is
    # independent by the block-order basis of the split, with no elimination
    def refuse(*args):
        raise AssertionError("eliminate called")

    monkeypatch.setattr(groebner, "eliminate", refuse)
    monkeypatch.setattr(decompose, "eliminate", refuse, raising=False)
    sets = []
    real = decompose._gtz_split

    def record(I, u, search):
        sets.append(u)
        return real(I, u, search)

    monkeypatch.setattr(decompose, "_gtz_split", record)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert primes_text(min_ass(ideal(R, [x * x - y]))) == [["x^2 - y"]]
    assert sets == [(1,), (0,)]


def test_localize_module_known_values():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    Px = ideal(R, [x])
    assert itext(localize_module(ideal(R, [x * y]), Px)) == ["x"]
    assert is_unit_ideal(localize_module(ideal(R, [y]), Px))
    assert itext(localize_module(ideal(R, [x * x, x * y]), Px)) == ["x"]
    m = ideal(R, [x, y])
    assert itext(localize_module(ideal(R, [x * x, x * y]), m)) == ["x*y", "x^2"]


def test_localize_module_rejects_an_ideal_of_another_ring():
    R = ring2()
    A = ideal(R, [R.variable(0) * R.variable(1)])
    S = RingContext(("x", "z"))
    with pytest.raises(RingError, match="differs from the module's in its variables"):
        localize_module(A, ideal(S, [S.variable(0)]))
    T = RingContext(("x", "y"), MonomialOrder(kind="lex"))
    with pytest.raises(RingError, match="differs from the module's in its order"):
        localize_module(A, ideal(T, [T.variable(0)]))


def test_primary_component_at_a_prime_over_no_associated_prime():
    # the associated primes (x) and (x, y) both lie outside (x - 1, y)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    with pytest.raises(
        DecompositionError,
        match=r"^\(y, x - 1\) contains no associated prime of the module$",
    ):
        primary_component(ideal(R, [x * x, x * y]), ideal(R, [x - 1, y]))


def test_primary_component_witnesses():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    Px = ideal(R, [x])
    Q, m, trace = primary_component(ideal(R, [x]), Px)
    assert itext(Q) == ["x"] and m == 1
    Q, m, trace = primary_component(ideal(R, [x * x]), Px)
    assert itext(Q) == ["x^2"] and m == 2
    I = ideal(R, [x * x, x * y])
    P = ideal(R, [x, y])
    Q, m, trace = primary_component(I, P)
    assert itext(Q) == ["y^2", "x*y", "x^2"]
    assert m == 2
    assert [(step, itext(h)) for step, h in trace] == [
        (1, ["y", "x"]),
        (2, ["y^2", "x*y", "x^2"]),
    ]


def test_witness_loop_builds_each_power_of_the_prime_from_a_reduced_one(monkeypatch):
    # (x^30, xy) needs P^30 at P = (x, y); a reduced P^m has m + 1 generators,
    # an unreduced product would double them at each step, past 64 by m = 6
    R = ring2()
    x, y = R.variable(0), R.variable(1)

    def bounded_module_sum(A, B):
        assert len(A.generators) + len(B.generators) <= 64
        return module_sum(A, B)

    module_sum = decompose._module_sum
    monkeypatch.setattr(decompose, "_module_sum", bounded_module_sum)
    res = primary_decomposition(ideal(R, [x**30, x * y]))
    got = [
        (itext(c.module), itext(c.prime), c.embedded, c.witness_exponent)
        for c in res.components
    ]
    assert got == [
        (["x"], ["x"], False, 1),
        (["x*y", "y^30", "x^30"], ["y", "x"], True, 30),
    ]


def test_the_witness_sum_starts_from_the_basis_of_the_prime_power(monkeypatch):
    # A + P^m F is formed as P^m F + A with P^m F reduced, so the run on it
    # starts from that cached basis and reduces A's generators alone
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    sums, runs = [], []
    module_sum, engine = decompose._module_sum, groebner._buchberger_engine

    def recording_sum(A, B):
        sums.append((A, B))
        return module_sum(A, B)

    def recording_engine(vectors, order, split=None, known=()):
        runs.append((len(vectors), len(known)))
        return engine(vectors, order, split, known)

    monkeypatch.setattr(decompose, "_module_sum", recording_sum)
    monkeypatch.setattr(groebner, "_buchberger_engine", recording_engine)
    I, P = ideal(R, [x * x, x * y]), ideal(R, [x, y])
    primary_component(I, P)
    assert [(itext(T), A) for T, A in sums] == [(["y", "x"], I), (["y^2", "x*y", "x^2"], I)]
    assert all(canonical(T) == T for T, _A in sums)
    T = canonical(ideal(R, [x**3, y]))
    del runs[:]
    canonical(decompose._module_sum(T, I))
    assert runs == [(2, 2)]


def test_ideal_times_module_lists_each_product_once():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    P = ideal(R, [x, y])
    assert decompose._ideal_times_module(P, P).generators == (x * x, x * y, y * y)


def test_primary_component_tells_minimal_primes_from_its_own_primes(monkeypatch):
    # no caller says which primes are minimal: over (x^2, xy) the minimal (x)
    # is not saturated by, while the embedded (x, y) is, and so is (x, y - 1),
    # which is not associated but contains (x); the values are the parent's
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    calls = []

    def recording_saturate(A, J):
        calls.append(itext(canonical(J)))
        return saturate(A, J)

    monkeypatch.setattr(decompose, "saturate", recording_saturate)
    I = ideal(R, [x * x, x * y])
    got = []
    for P in ([x], [x, y], [x, y - 1]):
        calls.clear()
        Q, m, trace = primary_component(I, ideal(R, P))
        got.append((itext(Q), m, len(trace), list(calls)))
    assert got == [
        (["x"], 1, 1, [["y"]]),
        (["y^2", "x*y", "x^2"], 2, 2, [["y", "x"]]),
        (["y - 1", "x"], 1, 1, [["y"], ["y - 1", "x"]]),
    ]
    # (x, y - 1) is not associated to (x(y - 1)) but holds both its primes,
    # (x) and (y - 1): nothing is separated, and the localization, of codim 1
    # below the prime's 2, is still saturated by (x, y - 1); the saturation
    # by (x) is min_ass's, by a lead coefficient, on the way to the
    # associated primes (the ideal is not monomial, so min_ass splits it)
    calls.clear()
    Q, m, trace = primary_component(ideal(R, [x * (y - 1)]), ideal(R, [x, y - 1]))
    assert (itext(Q), m, len(trace), calls) == (
        ["y - 1", "x"], 1, 1, [["x"], ["y - 1", "x"]]
    )


def test_primary_decomposition_embedded_example():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x * x, x * y])
    res = primary_decomposition(I)
    assert isinstance(res, DecompositionResult)
    assert len(res.components) == 2
    first, second = res.components
    assert itext(first.prime) == ["x"]
    assert not first.embedded
    assert first.codim == 1
    assert itext(first.module) == ["x"]
    assert itext(second.prime) == ["y", "x"]
    assert second.embedded
    assert second.codim == 2
    assert itext(second.module) == ["y^2", "x*y", "x^2"]
    assert second.witness_exponent == 2
    inter = intersect_many([c.module for c in res.components])
    assert module_equal(inter, I)


def test_embedded_flag_marks_only_primes_over_a_lower_associated_prime():
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))

    def flags(I):
        res = primary_decomposition(ideal(R, I))
        return [(itext(c.prime), c.codim, c.embedded) for c in res.components]

    assert flags([x * x, x * y]) == [(["x"], 1, False), (["y", "x"], 2, True)]
    # a higher-codim prime that contains no lower one is isolated
    assert flags([x * y, x * z]) == [(["x"], 1, False), (["z", "y"], 2, False)]


def test_points_make_no_redundancy_intersections(monkeypatch):
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    calls = []

    def counting_intersect_many(modules):
        calls.append(modules)
        return intersect_many(modules)

    # decompose does not import intersect_many; the patch catches any use
    monkeypatch.setattr(decompose, "intersect_many", counting_intersect_many, raising=False)
    pairs = []

    def counting_intersect(A, B):
        pairs.append((A, B))
        return intersect(A, B)

    monkeypatch.setattr(decompose, "intersect", counting_intersect)
    res = primary_decomposition(ideal(R, [x * x - x, y * y - y, z * z - z]))
    assert len(res.components) == 8
    assert not any(c.embedded for c in res.components)
    assert calls == []
    # one witness check per component; the isolated components of the hull
    # are not intersected again
    assert len(pairs) == 8
    # with higher-codim primes: one call per witness exponent tried, and one
    # to intersect each higher-codim component in, none to test redundancy
    pairs.clear()
    embedded_mix = ideal(R, [z * z * (x - 1) ** 2, x * y * (y - 1), x**3 * z - z])
    res = primary_decomposition(embedded_mix)
    higher = [c for c in res.components if c.codim > codim(embedded_mix)]
    assert higher
    assert calls == []
    assert len(pairs) == sum(len(c.hull_trace) for c in res.components) + len(higher)
    # the components keep the order min_ass gives each codim, with no sort of
    # their own: by codim, then by the rendered prime
    keys = [(c.codim, rendered_generators(c.prime)) for c in res.components]
    assert keys == sorted(keys) and len({b for b, _p in keys}) > 1


def test_one_saturation_per_localization_and_none_by_a_minimal_prime(monkeypatch):
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    calls = []

    def recording_saturate(A, J):
        calls.append(canonical(J))
        return saturate(A, J)

    separated = []
    separator = decompose._separator

    def counted_separator(P, GJ):
        separated.append(P)
        return separator(P, GJ)

    monkeypatch.setattr(decompose, "saturate", recording_saturate)
    monkeypatch.setattr(decompose, "_separator", counted_separator)
    res = primary_decomposition(ideal(R, [x * x - x, y * y - y, z * z - z]))
    assert len(res.components) == 8
    # one saturation by the product of the separators per localization, and
    # none by the prime: each point is a minimal prime
    assert len(calls) == len(res.components)
    # minimality is read off the localization's dimension, so the only
    # separators are the localizations': 8 associated primes at 8 points
    assert len(separated) == 64
    assert not set(calls) & {c.prime for c in res.components}
    # an embedded prime's localization is still saturated by that prime
    calls.clear()
    embedded_mix = ideal(R, [z * z * (x - 1) ** 2, x * y * (y - 1), x**3 * z - z])
    res = primary_decomposition(embedded_mix)
    embedded = {c.prime for c in res.components if c.embedded}
    assert embedded and embedded <= set(calls)
    assert not set(calls) & {c.prime for c in res.components if not c.embedded}


def test_minimal_prime_of_higher_codim_keeps_its_witness():
    # (y, z) contains no associated prime of lower codim, so it is minimal
    # though not a prime of the hull; the pins were computed with the
    # saturation by the prime in place
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))

    def higher(I):
        (c,) = [c for c in primary_decomposition(ideal(R, I)).components if c.codim == 2]
        assert not c.embedded and itext(c.prime) == ["z", "y"]
        return itext(c.module), c.witness_exponent, [(m, itext(h)) for m, h in c.hull_trace]

    assert higher([x * y, x * z]) == (["z", "y"], 1, [(1, ["z", "y"])])
    assert higher([x * y * y, x * z]) == (
        ["z", "y^2"],
        2,
        [(1, ["z", "y"]), (2, ["z", "y^2"])],
    )


def test_associated_primes_are_found_once_per_module(monkeypatch):
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    embedded_mix = ideal(R, [z * z * (x - 1) ** 2, x * y * (y - 1), x**3 * z - z])
    calls = []
    real = decompose.ass_prim_codim

    def counted(M, b):
        calls.append((canonical(M), b))
        return real(M, b)

    monkeypatch.setattr(decompose, "ass_prim_codim", counted)
    res = primary_decomposition(embedded_mix)
    assert [c.embedded for c in res.components].count(True) == 2
    assert calls
    assert len(calls) == len(set(calls))


def test_hull_primes_are_not_recomputed_at_the_input_codim(monkeypatch):
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    embedded_mix = ideal(R, [z * z * (x - 1) ** 2, x * y * (y - 1), x**3 * z - z])
    asked = []
    real = decompose.codim_associated_primes

    def recording(A, b, seed=0):
        asked.append(b)
        return real(A, b, seed)

    monkeypatch.setattr(decompose, "codim_associated_primes", recording)
    res = primary_decomposition(embedded_mix)
    assert [c.embedded for c in res.components].count(True) == 2
    assert asked
    assert codim(embedded_mix) not in asked


def test_associated_primes_of_every_fixture_hull_are_its_minimal_primes():
    # the hull is unmixed, which primary_decomposition relies on when it
    # localizes the hull at the minimal primes of its annihilator alone
    seen = 0
    for path in sorted(FIXTURES.glob("*.primdec")):
        for cmd in parse_script(path.read_text()).statements:
            if not isinstance(cmd, Command):
                continue
            M = canonical(cmd.module)
            if buchberger(M).is_full():
                continue
            N1 = equidim_hull(M)
            assert _associated_primes(N1, 0) == min_ass(annihilator(N1)), path.name
            seen += 1
    assert seen >= 6


def _rank2_module():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    v = FreeElement(R, ((x * x - 3) * (y * y - 3), y * (y * y - 3) * (x * x - 2)))
    return Submodule(R, 2, [v])


def test_codim_filter_matches_the_hull_of_each_ext_annihilator():
    # the associated primes of codim b are the minimal primes of codim b of
    # ann Ext^b; the minimal primes of the hull of that annihilator are the
    # reference
    modules = [_rank2_module()]
    for path in sorted(FIXTURES.glob("*.primdec")):
        modules += [
            cmd.module
            for cmd in parse_script(path.read_text()).statements
            if isinstance(cmd, Command)
        ]
    checked = 0
    for M in modules:
        Mc = canonical(M)
        for b in range(Mc.ring.n + 1):
            E = ext_module(b, Mc)
            if codim(E) != b:
                continue
            filtered = [P for P in min_ass(ass_prim_codim(Mc, b)) if codim(P) == b]
            assert filtered == min_ass(equidim_hull(E))
            checked += 1
    assert checked >= len(modules)


def test_rank2_module_keeps_only_the_codim_one_prime_of_ext1():
    M = _rank2_module()
    Mc = canonical(M)
    # ann Ext^1 = (y^3 - 3y, (x^2 - 3)(y^2 - 3)): minimal primes (y^2 - 3) of
    # codim 1 and (y, x^2 - 3) of codim 2, which is not associated
    assert primes_text(min_ass(ext_module(1, Mc))) == [["y^2 - 3"], ["y", "x^2 - 3"]]
    assert primes_text(_associated_primes(Mc, 0)) == [[], ["y^2 - 3"]]
    res = primary_decomposition(M)
    assert validate_decomposition(M, res.components).ok


def test_primary_decomposition_three_axes():
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    I = ideal(R, [x * x * y, x * z * z, y * y * z])
    res = primary_decomposition(I)
    primes = [itext(c.prime) for c in res.components]
    assert primes == [["y", "x"], ["z", "x"], ["z", "y"], ["z", "y", "x"]]
    flags = [c.embedded for c in res.components]
    assert flags == [False, False, False, True]
    inter = intersect_many([c.module for c in res.components])
    assert module_equal(inter, I)


def test_primary_decomposition_module_input():
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    zero = R.zero()
    M = Submodule(
        R,
        3,
        [
            FreeElement(R, (x * y, zero, y * z)),
            FreeElement(R, (zero, x * z, z * z)),
        ],
    )
    res = primary_decomposition(M)
    assert res.components
    inter = intersect_many([c.module for c in res.components])
    assert module_equal(inter, M)
    for c in res.components:
        assert is_sub(M, c.module)
        assert c.prime.ambient_rank == 1


def test_primary_decomposition_of_full_and_zero():
    R = ring2()
    assert primary_decomposition(ideal(R, [R.one()])).components == ()
    res = primary_decomposition(Submodule(R, 1, []))
    assert len(res.components) == 1
    only = res.components[0]
    assert itext(only.prime) == []
    assert not only.embedded


def test_primary_decomposition_primary_input():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    res = primary_decomposition(ideal(R, [x * x, x * y, y * y]))
    assert len(res.components) == 1
    assert itext(res.components[0].prime) == ["y", "x"]
    assert res.components[0].witness_exponent >= 1


def test_component_dataclass_shape():
    R = ring2()
    x = R.variable(0)
    res = primary_decomposition(ideal(R, [x]))
    c = res.components[0]
    assert isinstance(c, Component)
    assert c.hull_trace and c.hull_trace[0][0] == 1


def test_decomposition_error_is_runtime_error():
    assert issubclass(DecompositionError, RuntimeError)


def random_monomial_ideal(R, rng):
    n = R.n
    gens = []
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        if all(e == 0 for e in exps):
            exps = (0,) * (n - 1) + (1,)
        gens.append(R.monomial(exps))
    return ideal(R, gens)


def test_random_monomial_decompositions_intersect_back():
    rng = random.Random(11)
    R = ring2()
    for _ in range(10):
        I = random_monomial_ideal(R, rng)
        if is_unit_ideal(I):
            continue
        res = primary_decomposition(I)
        inter = intersect_many([c.module for c in res.components])
        assert module_equal(inter, I)
        primes = [tuple(itext(c.prime)) for c in res.components]
        assert len(primes) == len(set(primes))


S008 = """ring r = 0, (x, y, z), dp;
ideal I = (x^2 - 1)*(x^2 - 2), x*y*(z^2 + 5)*(2*z + x - 1), (x*z - 2)*(y*x + 5)*(x);
primdec I;
"""


def test_zero_dimensional_ideal_s008_answers_without_ext(tmp_path):
    # it hung resolving the input itself for the hull; being zero dimensional
    # it is its own hull.  The timeout makes a regression fail, not hang.
    script = tmp_path / "s008.primdec"
    script.write_text(S008)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "primarydec", "run", str(script), "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    (entry,) = json.loads(proc.stdout)
    assert entry["validation"]["ok"] is True
    assert [c["prime"] for c in entry["components"]] == [
        ["x + 2/5*y", "z^2 + 5", "y^2 - 25/2"],
        ["y", "x - z", "z^2 - 2"],
        ["y + 5", "x - 1", "z^2 + 5"],
        ["y - 5", "x + 1", "z^2 + 5"],
        ["y - 5*z + 5/2", "x + 2*z - 1", "z^2 - z - 1/4"],
        ["z", "y + 5", "x - 1"],
        ["z + 2", "y", "x + 1"],
        ["z - 1", "y - 5", "x + 1"],
        ["z - 2", "y", "x - 1"],
    ]
    assert {c["codim"] for c in entry["components"]} == {3}
