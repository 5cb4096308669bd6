import random
from fractions import Fraction

import pytest

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
    quotient_by_ideal,
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
    Submodule,
    full_module,
    ideal,
    ideal_generators,
    leading_term,
    render_polynomial,
    zero_module,
)


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
    S, m = saturate(I, ideal(R, [x, y]))
    assert module_equal(S, ideal(R, [x])) and m == 1
    S2, m2 = saturate(I, ideal(R, [x]))
    assert is_unit_ideal(S2) and m2 == 2
    S3, m3 = saturate(I, ideal(R, [R.one()]))
    assert S3 == canonical(I) and m3 == 0


def test_saturation_is_fixed_point():
    rng = random.Random(11)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    pool = [x, y, x + y, x - 1, y + 1, x * y - 1]
    for _ in range(25):
        I = ideal(R, [pool[rng.randrange(len(pool))] * pool[rng.randrange(len(pool))]])
        J = ideal(R, [pool[rng.randrange(len(pool))]])
        S, _m = saturate(I, J)
        again, k = saturate(S, J)
        assert again == S and k == 0


def test_eliminate_twisted_cubic():
    R = ring3()
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    I = ideal(R, [x - y**2, z - y**3])
    E = eliminate(I, [1])
    assert module_equal(E, ideal(R, [x**3 - z**2]))
    for g in E.generators:
        assert g.components[0].degree_in(1) <= 0


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
        assert leading_term(g, pot)[1] == 1
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
