import random

from primarydec import decompose
from primarydec.decompose import (
    Component,
    DecompositionError,
    DecompositionResult,
    _drop_redundant,
    _minimalize,
    localize_module,
    min_ass,
    primary_component,
    primary_decomposition,
)
from primarydec.groebner import (
    canonical,
    intersect_many,
    is_sub,
    is_unit_ideal,
    module_equal,
)
from primarydec.polyring import (
    FreeElement,
    MonomialOrder,
    RingContext,
    RingError,
    Submodule,
    ideal,
    render_polynomial,
)

import pytest


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


def test_drop_redundant_drops_only_the_redundant_embedded_piece():
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    M = canonical(ideal(R, [x * x, x * y]))
    pieces = [
        (ideal(R, [x]), canonical(ideal(R, [x])), 1, ()),
        (ideal(R, [x * x, y]), canonical(ideal(R, [x, y])), 1, ()),
        (ideal(R, [x * x, y, z]), canonical(ideal(R, [x, y, z])), 1, ()),
    ]
    kept = _drop_redundant(pieces, M)
    assert [piece for piece, _c, _e in kept] == pieces[:2]
    assert [(c, emb) for _p, c, emb in kept] == [(1, False), (2, True)]
    # a higher prime that contains no lower one is isolated
    pieces = [
        (ideal(R, [x]), canonical(ideal(R, [x])), 1, ()),
        (ideal(R, [y, z]), canonical(ideal(R, [y, z])), 1, ()),
    ]
    kept = _drop_redundant(pieces, canonical(ideal(R, [x * y, x * z])))
    assert [(c, emb) for _p, c, emb in kept] == [(1, False), (2, False)]


def test_points_make_no_redundancy_intersections(monkeypatch):
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    calls = []

    def counting_intersect_many(modules):
        calls.append(modules)
        return intersect_many(modules)

    monkeypatch.setattr(decompose, "intersect_many", counting_intersect_many)
    res = primary_decomposition(ideal(R, [x * x - x, y * y - y, z * z - z]))
    assert len(res.components) == 8
    assert not any(c.embedded for c in res.components)
    assert calls == []


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
