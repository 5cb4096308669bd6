import heapq
import random
from fractions import Fraction
from itertools import product
from operator import le

import pytest

from primarydec import groebner
from primarydec.groebner import (
    annihilator,
    buchberger,
    canonical,
    codim,
    eliminate,
    independent_sets,
    intersect,
    intersect_many,
    is_member,
    is_sub,
    is_unit_ideal,
    krull_dim,
    lift,
    modulo_kernel,
    module_equal,
    normal_form,
    quotient,
    reduce_columns,
    saturate,
    syzygies,
)
from primarydec.polyring import (
    POSITION_OVER_TERM,
    TERM_OVER_POSITION,
    FreeElement,
    MonomialOrder,
    RingContext,
    RingError,
    Submodule,
    from_terms,
    full_module,
    ideal,
    ideal_generators,
    render_polynomial,
    zero_module,
)

from oracles import quotient_by_ideal


def ring2():
    return RingContext(("x", "y"))


def ring3():
    return RingContext(("x", "y", "z"))


def test_reduced_basis_is_canonical():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x**2, x * y])
    G = canonical(I)
    assert [render_polynomial(g.components[0]) for g in G.generators] == ["x*y", "x^2"]
    # generator order and redundancy do not matter
    J = ideal(R, [x * y, x**2 + x * y, x**2, x**3])
    assert canonical(J) == G


def test_buchberger_known_basis():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    G = canonical(ideal(R, [x**2 + y**2, x * y]))
    rendered = [render_polynomial(g.components[0]) for g in G.generators]
    assert rendered == ["x*y", "x^2 + y^2", "y^3"]


def test_normal_form_and_membership():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    G = buchberger(ideal(R, [x**2, y**2]))
    assert normal_form(x**2 * y + y, G) == y
    assert is_member(x**2 * y**3 + x**4, G)
    assert not is_member(x * y, G)
    assert normal_form(R.zero(), G) == R.zero()


def test_normal_form_against_a_basis_in_another_order():
    # a lex basis in a dp ring reduces in lex and must key its remainder for
    # the ring's own order: the same value a lex copy of the ring computes
    lex = MonomialOrder(kind="lex")

    def setup(S):
        x, y, z = (S.variable(i) for i in range(3))
        gens = [x**2 - y * z, x * y - z, y**3 - x * z + 1]
        return ideal(S, gens), x**3 * y + 5 * z**2 - x * y * z

    R, RL = ring3(), RingContext(("x", "y", "z"), lex)
    (A, v), (AL, vL) = setup(R), setup(RL)
    G = buchberger(A, lex)
    got, want = normal_form(v, G), normal_form(vL, AL)
    assert render_polynomial(got) == render_polynomial(want)
    assert render_polynomial(got) == "-z^5 + z^4 + z^3 + 6*z^2 + z"
    native = [R.monomial(exps, Fraction(c, want.den)) for _k, _c, exps, c in want.terms]
    assert got == sum(native, R.zero())
    assert is_sub(ideal(R, [v - got, *A.generators]), G)
    assert not is_sub(ideal(R, [v]), G)
    assert is_sub(ideal(RL, [vL - want]), AL)


def test_unit_ideal_detection():
    R = ring2()
    x = R.variable(0)
    assert is_unit_ideal(ideal(R, [x, x + 1]))
    assert not is_unit_ideal(ideal(R, [x]))
    assert not is_unit_ideal(ideal(R, []))


def test_module_basis_needs_cross_component_pairs():
    # u and v have coprime leading monomials but are not single-component,
    # so their pair must not be discarded
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    u = FreeElement(R, (x, y))
    v = FreeElement(R, (y, x))
    G = buchberger(Submodule(R, 2, [u, v]))
    w = FreeElement(R, (R.zero(), x**2 - y**2))
    assert G.contains(w)
    assert (0, (0, 2)) in [(c, e) for c, e in G.leading_terms()] or (
        (1, (2, 0)) in [(c, e) for c, e in G.leading_terms()]
    )


def test_syzygies_simple():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x**2, x * y])
    S = syzygies(I)
    assert S.ambient_rank == 2
    assert len(S.generators) == 1
    rel = S.generators[0]
    combo = rel.components[0] * (x**2) + rel.components[1] * (x * y)
    assert combo.is_zero()


def test_syzygies_vanish_against_generators():
    rng = random.Random(7)
    R = ring3()

    def rand_poly():
        p = R.zero()
        for _ in range(rng.randrange(1, 4)):
            exps = tuple(rng.randrange(3) for _ in range(3))
            p = p + R.monomial(exps, rng.randrange(-3, 4))
        return p

    for _ in range(20):
        gens = [rand_poly() for _ in range(3)]
        I = ideal(R, gens)
        S = syzygies(I)
        cols = [g.components[0] for g in I.generators]
        for rel in S.generators:
            acc = R.zero()
            for coeff, g in zip(rel.components, cols):
                acc = acc + coeff * g
            assert acc.is_zero()


def test_syzygy_of_zero_generator():
    R = ring2()
    x = R.variable(0)
    I = ideal(R, [x, R.zero()])
    S = syzygies(I)
    # the zero generator contributes a free relation
    e2 = FreeElement(R, (R.zero(), R.one()))
    assert is_member(e2, buchberger(S))


def test_lift_exact():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    A = ideal(R, [x**2, x * y])
    B = ideal(R, [x**2 * y**2, x**3 + x**2 * y])
    T = lift(A, B)
    assert T.ambient_rank == len(A.generators)
    assert A.mul(T).generators == B.generators
    with pytest.raises(ValueError):
        lift(A, ideal(R, [y**3]))


def test_modulo_kernel():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    K = modulo_kernel(ideal(R, [x**2]), ideal(R, [x**3]))
    assert module_equal(K, ideal(R, [x]))
    # {v : v in A} = A when the map is the identity
    A = ideal(R, [x, y**2])
    K2 = modulo_kernel(full_module(R, 1), A)
    assert module_equal(K2, A)


def test_intersect_ideals():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert module_equal(intersect(ideal(R, [x]), ideal(R, [y])), ideal(R, [x * y]))
    I = ideal(R, [x**2, x * y])
    assert module_equal(intersect(I, ideal(R, [y])), ideal(R, [x * y]))
    assert module_equal(
        intersect_many([ideal(R, [x]), ideal(R, [y]), ideal(R, [x + y])]),
        ideal(R, [x * y * (x + y)]),
    )
    Z = zero_module(R, 1)
    assert intersect(I, Z).is_zero()


def test_intersect_modules():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    A = Submodule(R, 2, [FreeElement(R, (x, R.zero()))])
    B = Submodule(R, 2, [FreeElement(R, (R.one(), R.zero()))])
    got = intersect(A, B)
    assert module_equal(got, A)


def test_intersect_with_the_full_module_runs_no_elimination(monkeypatch):
    import primarydec.groebner as groebner

    def refuse(*_args):
        raise AssertionError("eliminate called")

    monkeypatch.setattr(groebner, "eliminate", refuse)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    zero = R.zero()
    cases = [
        (full_module(R, 1), ideal(R, [x**2, x * y])),
        # a constant multiple of a unit vector counts, other generators too
        (ideal(R, [R.constant(3), x]), ideal(R, [y - 1])),
        (
            full_module(R, 2),
            Submodule(R, 2, [FreeElement(R, (x, y)), FreeElement(R, (zero, y**2))]),
        ),
    ]
    for F, Q in cases:
        assert module_equal(intersect(F, Q), Q)
        assert module_equal(intersect(Q, F), Q)
    # (1, 0) and (x, 1) span the free module too, but only a basis would
    # show it, so this intersection is eliminated as any other
    hidden = Submodule(R, 2, [FreeElement(R, (R.one(), zero)), FreeElement(R, (x, R.one()))])
    with pytest.raises(AssertionError, match="eliminate called"):
        intersect(hidden, cases[2][1])


def test_quotient_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x**2, x * y])
    assert module_equal(quotient(I, ideal(R, [x])), ideal(R, [x, y]))
    assert module_equal(quotient(I, ideal(R, [x, y])), ideal(R, [x]))
    # quotient by the unit ideal returns the module itself
    assert module_equal(quotient(I, ideal(R, [R.one()])), I)
    # quotient by nothing is everything
    assert is_unit_ideal(quotient(I, Submodule(R, 1, [])))


def test_an_ideal_is_its_own_annihilator_with_no_syzygy_run(monkeypatch):
    # B holds a nonzero constant, read off its generators, so I : B is I
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x**2 * y + x, x * y - y, x**3])

    def no_kernel(A, B):
        raise AssertionError("modulo_kernel ran")

    monkeypatch.setattr(groebner, "modulo_kernel", no_kernel)
    assert quotient(I, ideal(R, [R.one()])) == canonical(I)
    assert quotient(I, ideal(R, [R.one() * 3, x])) == canonical(I)
    assert annihilator(I) == canonical(I)


def test_annihilator_of_quotient_module():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    # F/A with A generated by x*e1, y*e2: annihilator is <x*y>? no: x kills e1
    # only, so Ann = <x> cap <y> = <x*y>
    A = Submodule(
        R,
        2,
        [
            FreeElement(R, (x, R.zero())),
            FreeElement(R, (R.zero(), y)),
        ],
    )
    assert module_equal(annihilator(A), ideal(R, [x * y]))
    assert is_unit_ideal(annihilator(full_module(R, 2)))


def test_quotient_by_ideal():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x**2, x * y])
    P = ideal(R, [x, y])
    got = quotient_by_ideal(I, P)
    assert module_equal(got, ideal(R, [x]))
    assert module_equal(quotient_by_ideal(I, ideal(R, [R.one()])), I)
    assert is_unit_ideal(quotient_by_ideal(I, ideal(R, [])))


def test_saturate_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x**2, x * y])
    S = saturate(I, ideal(R, [x, y]))
    assert module_equal(S, ideal(R, [x]))
    S2 = saturate(I, ideal(R, [x]))
    assert is_unit_ideal(S2)
    S3 = saturate(I, ideal(R, [R.one()]))
    assert S3 == canonical(I)


def test_saturation_is_fixed_point():
    rng = random.Random(11)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    pool = [x, y, x + y, x - 1, y + 1, x * y - 1]
    for _ in range(25):
        I = ideal(R, [pool[rng.randrange(len(pool))] * pool[rng.randrange(len(pool))]])
        J = ideal(R, [pool[rng.randrange(len(pool))]])
        S = saturate(I, J)
        again = saturate(S, J)
        assert again == S


def test_eliminate_twisted_cubic():
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    I = ideal(R, [x - y**2, z - y**3])
    E = eliminate(I, [1])
    assert module_equal(E, ideal(R, [x**3 - z**2]))
    for g in E.generators:
        assert all(e[1] == 0 for _key, _comp, e, _c in g.terms)


def test_eliminate_nothing():
    R = ring2()
    x = R.variable(0)
    I = ideal(R, [x**2])
    assert eliminate(I, []) == canonical(I)


def test_krull_dim_and_codim():
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    assert krull_dim(ideal(R, [])) == 3
    assert krull_dim(ideal(R, [R.one()])) == -1
    assert krull_dim(ideal(R, [x**2, x * y])) == 2
    assert codim(ideal(R, [x**2, x * y])) == 1
    assert krull_dim(ideal(R, [x, y, z])) == 0
    assert krull_dim(ideal(R, [x * y * z])) == 2
    # modules: R^2 / <e1> has the dimension of the surviving free summand
    A = Submodule(R, 2, [FreeElement(R, (R.one(), R.zero()))])
    assert krull_dim(A) == 3
    assert krull_dim(full_module(R, 2)) == -1
    assert krull_dim(zero_module(R, 2)) == 3


def test_independent_sets():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert independent_sets(ideal(R, [x * y])) == [(0,), (1,)]
    assert independent_sets(ideal(R, [x])) == [(1,)]
    assert independent_sets(ideal(R, [])) == [(0, 1)]
    assert independent_sets(ideal(R, [R.one()])) == []
    assert independent_sets(ideal(R, [x, y])) == [()]


def test_is_sub_and_reduce_columns():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x**2, x * y])
    assert is_sub(ideal(R, [x**3, x**2 * y]), I)
    assert not is_sub(ideal(R, [x]), I)
    M = ideal(R, [x**2 + y, x**2])
    red = reduce_columns(M, buchberger(ideal(R, [x**2])))
    assert len(red.generators) == 1
    assert red.generators[0].components[0] == y


def test_reduce_columns_takes_a_submodule_or_its_basis():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    S = Submodule(R, 2, [FreeElement(R, (x, y)), FreeElement(R, (y**2, x))])
    A = Submodule(
        R,
        2,
        [FreeElement(R, (x * y + 1, y**2)), FreeElement(R, (x**2, x * y)), FreeElement(R, (y, x))],
    )
    red = reduce_columns(A, S)
    assert red == reduce_columns(A, buchberger(S))
    # the second column is x times a generator of S and vanishes
    assert len(red.generators) == 2


def test_quotient_contract_randomized():
    rng = random.Random(13)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    pool = [x, y, x + y, x * y, x**2, y**2, x + 1]
    for _ in range(15):
        A = ideal(R, [pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))]])
        B = ideal(R, [pool[rng.randrange(len(pool))]])
        Q = quotient(A, B)
        GA = buchberger(A)
        for f in ideal_generators(Q):
            for b in ideal_generators(B):
                assert is_member(f * b, GA)
        # and a non-member stays out: 1 in Q iff B inside A
        if not is_sub(B, GA):
            assert not is_unit_ideal(Q)


def test_intersection_contract_randomized():
    rng = random.Random(17)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    pool = [x, y, x + y, x * y - 1, x**2 + y]
    for _ in range(15):
        A = ideal(R, [pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))]])
        B = ideal(R, [pool[rng.randrange(len(pool))]])
        C = intersect(A, B)
        GA, GB = buchberger(A), buchberger(B)
        for g in ideal_generators(C):
            assert is_member(g, GA) and is_member(g, GB)
        # containment the other way: product of generators lies in the meet
        GC = buchberger(C)
        for a in ideal_generators(A)[:2]:
            for b in ideal_generators(B):
                assert is_member(a * b, GC)


def test_rational_coefficients_survive():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [Fraction(1, 2) * x**2 + y, x * y])
    G = canonical(I)
    # canonical generators are monic
    for g in G.generators:
        assert g.components[0].leading_coefficient() == 1
    assert is_member(x**2 + 2 * y, buchberger(I))


def test_basis_generators_are_the_engine_elements_in_the_ring_order():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    G = buchberger(ideal(R, [Fraction(1, 2) * x**2 + y, 3 * x * y - 1]))
    assert all(g.terms is e[0] and g.den == e[4] for g, e in zip(G.generators, G._elems))
    block = buchberger(G.module, MonomialOrder(kind="block", blocks=((1,),)))
    assert all(g.terms is not e[0] for g, e in zip(block.generators, block._elems))


# The engine computes on integer coefficients with the denominators cleared
# and the content divided out; the tests below pin the exact rational values
# that come back out of it.


def _rational_ideal(R):
    x, y = R.variable(0), R.variable(1)
    return ideal(
        R, [Fraction(5, 6) * x - Fraction(1, 3), 10007 * y**2 - Fraction(1, 2) * x]
    )


def test_normal_form_is_the_exact_rational_remainder():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = _rational_ideal(R)
    # x = 2/5 and y^2 = x / 20014 = 1/50035 modulo I
    assert [str(g) for g in canonical(I).generators] == ["x - 2/5", "y^2 - 1/50035"]
    r = normal_form(x * y**3 + Fraction(3, 7) * y + x**2, I)
    lin = Fraction(2, 5) * Fraction(1, 50035) + Fraction(3, 7)
    assert r == lin * y + Fraction(4, 25)
    assert str(r) == "750539/1751225*y + 4/25"


def test_lift_of_rational_vectors():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    A = _rational_ideal(R)
    a1, a2 = ideal_generators(A)
    B = ideal(R, [
        Fraction(3, 4) * x * y * a1 + Fraction(2, 9) * a2,
        Fraction(1, 10007) * a2,
        (Fraction(7, 3) * y - 10007) * a1,
    ])
    T = lift(A, B)
    assert A.mul(T) == B


@pytest.mark.parametrize("extension", [POSITION_OVER_TERM, TERM_OVER_POSITION])
def test_syzygies_are_monic_in_position_over_term(extension):
    R = RingContext(("x", "y", "z"), MonomialOrder(module_extension=extension))
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    A = Submodule(R, 2, [
        FreeElement(R, (Fraction(5, 6) * x - Fraction(1, 3) * z, 10007 * y)),
        FreeElement(R, (Fraction(2, 7) * y * z, x - y)),
        FreeElement(R, (x * y, Fraction(-1, 10007) * z**2)),
    ])
    S = syzygies(A)
    assert S.generators
    pot = MonomialOrder(module_extension=POSITION_OVER_TERM)
    for g in S.generators:
        lead = max(
            ((comp, e, Fraction(c, g.den)) for _key, comp, e, c in g.terms),
            key=lambda t: pot.term_key(t[0], t[1]),
        )
        assert lead[2] == 1
    assert A.mul(S).is_zero()


def test_reduce_vector_of_a_member_is_zero():
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    g1 = FreeElement(R, (Fraction(5, 6) * x - Fraction(1, 3), 10007 * y * z))
    g2 = FreeElement(R, (Fraction(2, 9) * y**2, x - Fraction(1, 10007) * z))
    G = buchberger(Submodule(R, 2, [g1, g2]))
    v = g1.scale(Fraction(3, 11) * z - y) + g2.scale(Fraction(10007, 2) * x * y)
    assert not v.is_zero()
    assert G.reduce_vector(v).is_zero()
    third = FreeElement(R, (R.zero(), R.constant(Fraction(1, 3))))
    assert G.reduce_vector(v + third) == G.reduce_vector(third)


_SYZ_ORDERS = {
    "dp": MonomialOrder(),
    "lp": MonomialOrder(kind="lex"),
    "wp": MonomialOrder(kind="degrevlex", weights=(2, 3, 1)),
}


def _random_matrix(R, rng, rank, count, degree=2):
    monos = [e for e in product(range(3), repeat=R.n) if sum(e) <= degree]

    def rand_poly():
        p = R.zero()
        for _ in range(rng.randrange(1, 3)):
            p = p + R.monomial(rng.choice(monos), rng.choice((-3, -2, -1, 1, 2, 5)))
        return p

    gens = [
        FreeElement(R, tuple(rand_poly() if rng.random() < 0.7 else R.zero() for _ in range(rank)))
        for _ in range(count)
    ]
    return Submodule(R, rank, gens)


def _tag_part_of_full_tagged_basis(A):
    """Syz(A) the old way: the tag-led part of the reduced Groebner basis of
    {[a_i; e_i]} in position over term, tag-tag S-pairs included."""
    R = A.ring
    s, g = A.ambient_rank, len(A.generators)
    tagged = Submodule(R, s + g, [
        FreeElement(R, gen.components + tuple(full_module(R, g).generators[i].components))
        for i, gen in enumerate(A.generators)
    ])
    pot = MonomialOrder(
        kind=R.order.kind, weights=R.order.weights, module_extension=POSITION_OVER_TERM
    )
    return Submodule(R, g, [
        FreeElement(R, gen.components[s:])
        for gen in buchberger(tagged, pot).generators
        if all(p.is_zero() for p in gen.components[:s])
    ])


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("extension", [POSITION_OVER_TERM, TERM_OVER_POSITION])
@pytest.mark.parametrize("order", sorted(_SYZ_ORDERS))
def test_syzygies_and_lift_match_the_full_tagged_basis(order, extension, rank):
    base = _SYZ_ORDERS[order]
    R = RingContext(("x", "y", "z"), MonomialOrder(
        kind=base.kind, weights=base.weights, module_extension=extension
    ))
    rng = random.Random(f"{order}-{extension}-{rank}")
    for _ in range(3):
        # linear entries at rank 3: quadratic 3 x 4 draws cost the lex
        # reference run from 7 s to over 40 s
        drawn = _random_matrix(R, rng, rank, max(3, rank + 1), 2 if rank < 3 else 1)
        # a Groebner basis as input keeps the run truncated, at least in
        # position over term
        for A in (drawn, canonical(drawn)):
            S = syzygies(A)
            assert module_equal(S, _tag_part_of_full_tagged_basis(A))
            assert A.mul(S).is_zero()
            B = A.mul(_random_matrix(R, rng, len(A.generators), 2))
            assert A.mul(lift(A, B)) == B


def _tag_tag_spairs(monkeypatch, A):
    """Per _spair call during syzygies(A): were both operands tag-led?"""
    from primarydec import groebner

    s = A.ambient_rank
    calls = []
    real_spair = groebner._spair

    def counting_spair(e1, e2, order):
        calls.append(e1[2] >= s and e2[2] >= s)
        return real_spair(e1, e2, order)

    monkeypatch.setattr(groebner, "_spair", counting_spair)
    syzygies(A)
    return calls


def test_syzygies_of_a_groebner_basis_make_no_tag_tag_s_pairs(monkeypatch):
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    A = ideal(R, [x**2, x * y, y**2, x * z, y * z, z**2])
    calls = _tag_tag_spairs(monkeypatch, A)
    assert len(syzygies(A).generators) == 8 and calls
    assert not any(calls)


def test_syzygies_complete_the_run_once_an_s_pair_leaves_a_top_remainder(monkeypatch):
    # the S-pair of x*y + 1 and x^2 leaves x, a new element with a combined
    # tag; from there the run completes and returns the reduced tag part
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    A = ideal(R, [x * y + 1, x**2])
    assert any(_tag_tag_spairs(monkeypatch, A))
    S = syzygies(A)
    assert S == _tag_part_of_full_tagged_basis(A)
    assert [str(p) for p in S.generators[0].components] == ["x^2", "-x*y - 1"]


# ---------------------------------------------------------------------------
# the Groebner cache: reuse across orders and from a cached prefix
# ---------------------------------------------------------------------------


def _engine_runs(monkeypatch):
    """The size of `known` per engine run from here on, one entry a run."""
    from primarydec import groebner

    runs = []
    real = groebner._buchberger_engine

    def counting(vectors, order, split=None, known=()):
        runs.append(len(known))
        return real(vectors, order, split, known)

    monkeypatch.setattr(groebner, "_buchberger_engine", counting)
    return runs


def _cold(A, order=None):
    """The basis of A from a run in a fresh ring equal to A's, which holds no
    memo yet."""
    fresh = RingContext(A.ring.variables, A.ring.order)
    gens = [from_terms(fresh, g.rank, g.terms, g.den) for g in A.generators]
    return buchberger(Submodule(fresh, A.ambient_rank, gens), order)


def _same_basis(G, H):
    return (
        G.generators == H.generators
        and G.leading_terms() == H.leading_terms()
        and G.order == H.order
    )


def _random_module(R, rng, rank, count):
    """count generators of R^rank, each entry zero or a binomial of degree 1
    or 2: without constants, bases rarely collapse to the whole module."""
    monos = [e for e in product(range(3), repeat=R.n) if 1 <= sum(e) <= 2]

    def entry():
        if rng.random() < 0.3:
            return R.zero()
        return sum(
            (R.monomial(rng.choice(monos), rng.choice((-2, -1, 1, 3))) for _ in range(2)),
            R.zero(),
        )

    gens = [FreeElement(R, tuple(entry() for _ in range(rank))) for _ in range(count)]
    return Submodule(R, rank, gens)


_REUSE_ORDERS = {
    "lex": MonomialOrder(kind="lex"),
    "block": MonomialOrder(kind="block", blocks=((2,),)),
    "top": MonomialOrder(module_extension=TERM_OVER_POSITION),
}


@pytest.mark.parametrize("rank", [1, 2])
def test_a_basis_reused_in_another_order_equals_a_cold_run(monkeypatch, rank):
    R = ring3()
    rng = random.Random(f"reuse-{rank}")
    runs = _engine_runs(monkeypatch)
    outcomes = set()
    for _ in range(8):
        # quadratic rank-2 modules with three generators can take minutes in lex
        A = _random_module(R, rng, rank, 4 - rank)
        for name, order in _REUSE_ORDERS.items():
            C = _cold(A).module
            del runs[:]
            warm = buchberger(C, order)
            # no run when every lead stays; one full run when some lead moves
            assert runs in ([], [0])
            outcomes.add((name, bool(runs)))
            assert _same_basis(warm, _cold(C, order))
            assert _same_basis(warm, _cold(A, order))
    # both outcomes are met in every order, except that rank 1 has a single
    # component, so term over position moves no lead there
    expected = {(name, ran) for name in _REUSE_ORDERS for ran in (False, True)}
    if rank == 1:
        expected.discard(("top", True))
    assert outcomes == expected


def test_a_moving_lead_falls_back_to_a_full_run(monkeypatch):
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    # degrevlex leads y^2, lex leads x
    C = _cold(ideal(R, [x + y**2, z**3 - y])).module
    runs = _engine_runs(monkeypatch)
    warm = buchberger(C, _REUSE_ORDERS["lex"])
    assert runs == [0]
    assert _same_basis(warm, _cold(C, _REUSE_ORDERS["lex"]))
    assert [str(g) for g in warm.generators] == ["-z^3 + y", "z^6 + x"]


@pytest.mark.parametrize("rank", [1, 2])
def test_a_basis_extended_by_a_generator_starts_from_the_cached_prefix(monkeypatch, rank):
    R = ring3()
    rng = random.Random(f"prefix-{rank}")
    runs = _engine_runs(monkeypatch)
    for _ in range(8):
        G = _cold(_random_module(R, rng, rank, 4 - rank))
        f = _random_module(R, rng, rank, 1).generators[0]
        # over G's ring, whose memo holds G
        B = Submodule(G.ring, rank, [*G.generators, f])
        del runs[:]
        warm = canonical(B)
        assert runs == [len(G.generators)]
        assert warm == _cold(B).module


def test_a_reduced_basis_is_cached_under_its_own_module(monkeypatch):
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    A = ideal(R, [x**2 * y - z, x * y**2 - x, 2 * y * z - 3])
    runs = _engine_runs(monkeypatch)
    C = canonical(A)
    assert C != A
    assert canonical(C) == C
    assert len(runs) == 1


def test_linear_forms_asked_again_in_lex_make_no_run(monkeypatch):
    # on degree-one monomials lex and degrevlex agree, so no lead moves
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    C = _cold(ideal(R, [x + 2 * y - z, 3 * y + z + 1, x - y])).module
    runs = _engine_runs(monkeypatch)
    G = buchberger(C, _REUSE_ORDERS["lex"])
    assert runs == []
    assert _same_basis(G, _cold(C, _REUSE_ORDERS["lex"]))


def test_the_cache_stays_bounded_and_keeps_the_latest_entries(monkeypatch):
    R = ring3()
    runs = _engine_runs(monkeypatch)
    # 2 x^k is not monic, so each call stores two entries: input and result
    inputs = [ideal(R, [R.monomial((k, 0, 0), 2)]) for k in range(2100)]
    for A in inputs:
        buchberger(A)
    assert len(runs) == 2100
    assert len(R._memo.entries) == R._memo.maxsize == 4096
    buchberger(inputs[-1])
    assert len(runs) == 2100
    buchberger(inputs[0])
    assert len(runs) == 2101
    # a split run is stored under its own key only
    R = ring3()
    syzygies(ideal(R, [R.variable(0), R.variable(1)]))
    assert len(R._memo.entries) == 1


def test_each_ring_keeps_its_own_memo_and_an_equal_fresh_ring_starts_cold(monkeypatch):
    R = ring3()
    x, y = R.variable(0), R.variable(1)
    A = ideal(R, [x**2 - y, x * y])
    runs = _engine_runs(monkeypatch)
    G = buchberger(A)
    assert buchberger(A) is G and len(runs) == 1
    # an equal ring is an equal key, but its own instance holds its own memo
    assert _same_basis(_cold(A), G) and len(runs) == 2
    assert repr(R) == repr(ring3()) and hash(R) == hash(ring3())


def test_a_second_intersect_in_a_ring_derives_no_unit_keys(monkeypatch):
    # a ring builds its @t ring once, whose order derives its unit keys once,
    # even when the second intersection's runs miss the memo
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    intersect(ideal(R, [x * y, z**2 - x]), ideal(R, [y - z, x**2]))
    derived = []
    original = MonomialOrder._derive_units

    def counting(order, n):
        derived.append((order, n))
        return original(order, n)

    monkeypatch.setattr(MonomialOrder, "_derive_units", counting)
    runs = _engine_runs(monkeypatch)
    intersect(ideal(R, [x * z, y**2 - z]), ideal(R, [x - y, z**2]))
    assert runs and derived == []


# ---------------------------------------------------------------------------
# eliminations seeded from cached bases, and pairs of monomials
# ---------------------------------------------------------------------------


def _t_runs(monkeypatch):
    """The size of `known` per elimination run in an @t ring from here on."""
    from primarydec import groebner

    runs = []
    real = groebner._buchberger_engine

    def counting(vectors, order, split=None, known=()):
        if order.blocks == ((0,),):
            runs.append(len(known))
        return real(vectors, order, split, known)

    monkeypatch.setattr(groebner, "_buchberger_engine", counting)
    return runs


def _moved(X, R):
    """X over the ring R, equal to X's ring."""
    return Submodule(R, X.ambient_rank, [from_terms(R, g.rank, g.terms, g.den) for g in X.generators])


def _seed_of(X, ts):
    """Whether the @t ring of X's ring holds X's reduced basis lifted by ts
    as its own reduced basis."""
    from primarydec import groebner

    ext = groebner._t_ring(X.ring)
    lifted = {groebner._extend_vector(g, ext, ts) for g in canonical(X).generators}
    return any(
        split is None and set(M.generators) == lifted and G.module == M
        for (M, _order, split), G in ext._memo.entries.items()
    )


_SEED_ORDERS = {
    "dp": MonomialOrder(),
    "lp": MonomialOrder(kind="lex"),
    "wp": MonomialOrder(weights=(2, 3, 1)),
    "block": MonomialOrder(kind="block", blocks=((0, 1),)),
}


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("extension", [POSITION_OVER_TERM, TERM_OVER_POSITION])
@pytest.mark.parametrize("order", sorted(_SEED_ORDERS))
def test_intersect_and_saturate_do_not_depend_on_a_cached_basis(
    monkeypatch, order, extension, rank
):
    kind = _SEED_ORDERS[order]._replace(module_extension=extension)
    rng = random.Random(f"seed-{order}-{extension}-{rank}")
    runs = _t_runs(monkeypatch)
    seeded, nonzero = [], []
    for _ in range(6):
        R = RingContext(("x", "y", "z"), kind)
        A, B = _random_module(R, rng, rank, 2), _random_module(R, rng, rank, 2)
        J = _random_module(R, rng, 1, 1)
        results = []
        # cold; with A's basis cached; with B's alone
        for warm in ((), (A,), (B,)):
            fresh = RingContext(R.variables, kind)
            a, b, j = (_moved(X, fresh) for X in (A, B, J))
            for X in warm:
                buchberger(_moved(X, fresh))
            del runs[:]
            results.append((intersect(a, b).generators, saturate(a, j).generators))
            seeded.append(any(runs))
            nonzero.append(any(not X.is_zero() for X in warm))
        assert results[0] == results[1] == results[2]
    # only a cached basis seeds; the @t ring's order is degrevlex, term over
    # position, so from dp under it, or with one component, no lead moves
    assert all(map(le, seeded, nonzero))
    if order == "dp" and (rank == 1 or extension == TERM_OVER_POSITION):
        assert seeded == nonzero and any(seeded)


def test_a_ring_where_a_lead_moves_records_no_seed(monkeypatch):
    runs = _t_runs(monkeypatch)
    # lex leads x, degrevlex leads y^2
    R = RingContext(("x", "y", "z"), MonomialOrder(kind="lex"))
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    A, B = ideal(R, [x + y**2]), ideal(R, [y * z - x])
    fresh = RingContext(R.variables, R.order)
    cold = intersect(_moved(A, fresh), _moved(B, fresh))
    buchberger(A)
    del runs[:]
    assert intersect(A, B).generators == cold.generators
    assert runs == [0] and not _seed_of(A, ((1, 1),))
    # position over term leads x e_0, the @t ring's term over position y^2 e_1
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    A = Submodule(R, 2, [FreeElement(R, (x, y**2))])
    B = Submodule(R, 2, [FreeElement(R, (z, R.zero())), FreeElement(R, (R.zero(), x))])
    buchberger(A)
    buchberger(B)
    del runs[:]
    saturate(A, ideal(R, [z]))
    intersect(A, B)
    assert runs == [0, 0]
    assert not _seed_of(A, ((0, 1),)) and not _seed_of(A, ((1, 1),))
    # where no lead moves the same calls record their seeds
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    A, B = ideal(R, [x + y**2]), ideal(R, [y * z - x])
    buchberger(A)
    del runs[:]
    intersect(A, B)
    saturate(A, ideal(R, [z]))
    assert runs == [1, 1]
    assert _seed_of(A, ((1, 1),)) and _seed_of(A, ((0, 1),))


def test_a_run_on_monomial_generators_forms_no_s_pair(monkeypatch):
    from primarydec import groebner

    calls = []
    real = groebner._spair

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_spair", counting)
    for order in _SEED_ORDERS.values():
        for extension in (POSITION_OVER_TERM, TERM_OVER_POSITION):
            R = RingContext(("x", "y", "z"), order._replace(module_extension=extension))
            mono = [R.monomial(e, c) for e, c in [((2, 0, 0), 3), ((1, 1, 0), -1), ((0, 2, 1), 2)]]
            zero = R.zero()
            for A in (
                ideal(R, mono),
                Submodule(R, 2, [FreeElement(R, (m, zero)) for m in mono]
                    + [FreeElement(R, (zero, m)) for m in mono[1:]]),
            ):
                G = buchberger(A)
                assert G.module == _cold(A).module
                assert len(G.generators) == len(A.generators)
    assert calls == []


def test_canonical_of_an_intersection_or_saturation_runs_nothing(monkeypatch):
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    A, B = ideal(R, [x * y, z**2 - x]), ideal(R, [y - z, x**2])
    I, S = intersect(A, B), saturate(A, ideal(R, [y]))
    runs = _engine_runs(monkeypatch)
    assert canonical(I) == _cold(I).module and canonical(S) == _cold(S).module
    assert runs == [0, 0]  # the two cold runs only


# ---------------------------------------------------------------------------
# the engine's bookkeeping against the plain forms it replaced
# ---------------------------------------------------------------------------


def _reference_update_pairs(basis, pair_set, heap, t, order):
    """The Gebauer-Moeller update written plainly: dicts of lcms and of flags
    for pairs whose S-vector reduces to zero (coprime one-component
    elements, or two single-term ones), criterion M through nested scans,
    every pending pair scanned."""
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def coprime_ok(e1, e2):
        if e1[5] is None or e2[5] is None:
            return False
        return not any(map(min, e1[3], e2[3]))

    def monomials(e1, e2):
        return len(e1[0]) == 1 and len(e2[0]) == 1

    h = basis[t]
    hcomp, hexps = h[2], h[3]
    cand = [i for i in range(t) if basis[i][2] == hcomp]
    lcms = {i: tuple(map(max, basis[i][3], hexps)) for i in cand}
    coprime = {i: coprime_ok(basis[i], h) or monomials(basis[i], h) for i in cand}
    keep = []
    rest = list(cand)
    while rest:
        i = rest.pop(0)
        li = lcms[i]
        if coprime[i] or (
            not any(divides(lcms[j], li) and lcms[j] != li for j in rest)
            and not any(divides(lcms[j], li) for j in keep)
        ):
            keep.append(i)
    for (i, j) in list(pair_set.keys()):
        if basis[i][2] != hcomp:
            continue
        lij = pair_set[(i, j)]
        if divides(hexps, lij) and lcms[i] != lij and lcms[j] != lij:
            del pair_set[(i, j)]
    for i in keep:
        if coprime[i]:
            continue
        pair_set[(i, t)] = lcms[i]
        heapq.heappush(heap, (order.term_key(hcomp, lcms[i]), i, t))


def _reference_reduced_basis(basis):
    """Minimal leads, each kept element reduced against all the others."""
    from primarydec import groebner

    kept = []
    for e in sorted(basis, key=lambda e: e[1]):
        if not any(k[2] == e[2] and all(map(le, k[3], e[3])) for k in kept):
            kept.append(e)
    final = []
    for idx, e in enumerate(kept):
        others: dict = {}
        for j, k in enumerate(kept):
            if j != idx:
                others.setdefault(k[2], []).append(k)
        _s, r = groebner._reduce_full(e[0], others)
        final.append(groebner._make_elem(groebner._primitive(r)))
    final.sort(key=lambda e: e[1])
    return final


def _checked_engine(monkeypatch):
    """Check every pair update and reduced basis against its reference as the
    engine runs; returns counts of the calls and of what the criteria did."""
    from primarydec import groebner

    seen = {"updates": 0, "m_drops": 0, "b_drops": 0, "reduced": 0, "split": 0}
    real_update, real_reduced = groebner._update_pairs, groebner._reduced_basis
    real_engine = groebner._buchberger_engine

    def update(basis, pair_set, heap, t, order):
        before = list(pair_set)
        ref_pairs, ref_heap = dict(pair_set), list(heap)
        _reference_update_pairs(basis, ref_pairs, ref_heap, t, order)
        real_update(basis, pair_set, heap, t, order)
        assert list(pair_set.items()) == list(ref_pairs.items())
        assert heap == ref_heap
        dropped = sum(key not in pair_set for key in before)
        added = len(pair_set) - len(before) + dropped
        candidates = sum(e[2] == basis[t][2] for e in basis[:t])
        seen["updates"] += 1
        seen["b_drops"] += dropped
        seen["m_drops"] += candidates - added

    def reduced(basis):
        out = real_reduced(basis)
        assert out == _reference_reduced_basis(basis)
        seen["reduced"] += 1
        return out

    def engine(vectors, order, split=None, known=()):
        seen["split"] += split is not None
        return real_engine(vectors, order, split, known)

    monkeypatch.setattr(groebner, "_update_pairs", update)
    monkeypatch.setattr(groebner, "_reduced_basis", reduced)
    monkeypatch.setattr(groebner, "_buchberger_engine", engine)
    return seen


_ENGINE_ORDERS = {
    "dp": MonomialOrder(),
    "lp": MonomialOrder(kind="lex"),
    "wp": MonomialOrder(weights=(2, 3, 1)),
    "block": MonomialOrder(kind="block", blocks=((0, 1),)),
    "dp-top": MonomialOrder(module_extension=TERM_OVER_POSITION),
}


@pytest.mark.parametrize("order", sorted(_ENGINE_ORDERS))
def test_pair_update_and_reduced_basis_match_their_plain_forms(monkeypatch, order):
    seen = _checked_engine(monkeypatch)
    for rank in (1, 2):
        rng = random.Random(f"engine-{order}-{rank}")
        for _ in range(16):
            # a fresh ring for each module, so that no memo serves its runs
            R = RingContext(("x", "y", "z"), _ENGINE_ORDERS[order])
            A = _random_module(R, rng, rank, 5 - rank)
            buchberger(A)
            syzygies(A)  # a split run
    assert seen["updates"] and seen["reduced"] and seen["split"]
    # both criteria drop pairs, so the comparison covers them
    assert seen["b_drops"] and seen["m_drops"]


def test_a_pair_whose_lcm_reaches_the_key_bound_is_refused(monkeypatch):
    # each lead has degree 2^61 + 1, within the bound; their lcm has 2^62,
    # which the pair update refuses as it keys the pair, before any S-vector
    half = 2**61
    R = RingContext(("x", "y"), MonomialOrder())
    x, y = R.variable(0), R.variable(1)

    def refuse(*args):
        raise AssertionError("S-vector formed")

    monkeypatch.setattr(groebner, "_spair", refuse)
    with pytest.raises(RingError, match=r"2\^62"):
        buchberger(ideal(R, [x**half * y - 1, x * y**half - 1]))


def test_reductions_and_s_pairs_refuse_degrees_beyond_the_key_bound():
    # under lex a reducer's tail may outweigh its lead, so a reduction step
    # or an S-pair side can raise the degree past what the keys hold
    half = 2**61
    R = RingContext(("x", "y", "z"), MonomialOrder(kind="lex"))
    x, y, z = (R.variable(i) for i in range(3))
    G = buchberger(ideal(R, [x - y**half]))
    assert normal_form(x * y ** (half - 1), G) == y ** (2 * half - 1)
    with pytest.raises(RingError, match=r"2\^62"):
        normal_form(x * y**half, G)
    # the S-pair of x*y - z^half and x*z^half - 1 multiplies z^half by z^half
    with pytest.raises(RingError, match=r"2\^62"):
        buchberger(ideal(R, [x * y - z**half, x * z**half - 1]))
