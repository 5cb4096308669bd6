"""Monomial submodules in closed form: `intersect` by lcms, `saturate` by
dropping exponents and `min_ass` by minimal covers of the supports, each
recorded as its own reduced basis with no Groebner run.

Each closed form is compared, on seeded random monomial ideals and rank-2
monomial modules in 2-4 variables under dp, lp and a block order, with the
elimination path that the same modules take when given with one extra,
non-monomial generator: (x_0 + 1) times a generator, which changes neither
module.  `min_ass` is compared with the combinatorial oracle and with the
GTZ recursion.  Every recorded basis must equal a cold engine run of its own
generators on a fresh ring."""

import random

from primarydec import decompose, groebner
from primarydec.decompose import min_ass
from primarydec.groebner import canonical, codim, intersect, is_sub, saturate
from primarydec.polyring import (
    MonomialOrder,
    RingContext,
    Submodule,
    from_terms,
    ideal,
    unit_vector,
)

from oracles import monomial_minimal_primes

ORDERS = {
    "dp": MonomialOrder(),
    "lp": MonomialOrder("lex"),
    "block": MonomialOrder("block", blocks=((1,),)),
}
NAMES = ("x", "y", "z", "w")


def _draw(rng: random.Random, n: int, rank: int, count: int):
    """count generators (comp, exps, coeff), exponents 0..3, some constant."""
    return [
        (
            rng.randrange(rank),
            tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n)),
            rng.choice((1, 1, -2, 3)),
        )
        for _ in range(count)
    ]


def _module(R: RingContext, rank: int, gens, padded: bool = False) -> Submodule:
    """The monomial module of gens over R; padded adds (x_0 + 1) times the
    first generator, which leaves the module as it is and is not a monomial."""
    vecs = [unit_vector(R, rank, c).scale(R.monomial(a, k)) for c, a, k in gens]
    if padded and vecs:
        vecs.append(vecs[0].scale(R.variable(0) + 1))
    return Submodule(R, rank, vecs)


def _data(M: Submodule):
    """The canonical generators of M as terms, comparable across rings."""
    return [(g.terms, g.den) for g in canonical(M).generators]


def _check_recorded(M: Submodule):
    """M is recorded as its own reduced basis, the one a cold run gives."""
    ring = M.ring
    G = groebner._memo(ring).entries[M, ring.order, None]
    fresh = RingContext(ring.variables, ring.order)
    gens = [from_terms(fresh, g.rank, g.terms, g.den) for g in M.generators]
    H = groebner._memo(fresh)._run(Submodule(fresh, M.ambient_rank, gens), fresh.order, None)
    assert G.module == M
    assert [(g.terms, g.den) for g in G.generators] == [(h.terms, h.den) for h in H.generators]
    assert G._elems == H._elems and G.order == H.order


def _cases(count: int):
    rng = random.Random(46)
    for k in range(count):
        n = rng.randint(2, 4)
        rank = 1 + k % 2
        order = list(ORDERS)[k % len(ORDERS)]
        yield n, rank, order, rng


def test_intersect_by_lcms_matches_the_elimination():
    for n, rank, order, rng in _cases(40):
        A, B = (_draw(rng, n, rank, rng.randint(1, 4)) for _ in range(2))
        R = RingContext(NAMES[:n], ORDERS[order])
        operands = _module(R, rank, A), _module(R, rank, B)
        got = intersect(*operands)
        # an operand that holds every unit vector leaves the other as given
        if got not in operands:
            _check_recorded(got)
        old = RingContext(NAMES[:n], ORDERS[order])
        want = intersect(_module(old, rank, A, True), _module(old, rank, B, True))
        assert _data(got) == _data(want), (order, A, B)


def test_saturate_by_dropped_exponents_matches_the_elimination():
    for n, rank, order, rng in _cases(30):
        A = _draw(rng, n, rank, rng.randint(1, 4))
        js = [
            [a for _c, a, _k in _draw(rng, n, 1, rng.randint(1, 2))],
            [(0,) * n, _draw(rng, n, 1, 1)[0][1]],  # a constant generator
            [None, _draw(rng, n, 1, 1)[0][1]],  # a zero generator
            [],  # J = 0
            [None],
        ]
        for J in js:
            sides = []
            for padded in (False, True):
                R = RingContext(NAMES[:n], ORDERS[order])
                Jr = ideal(R, [R.zero() if a is None else R.monomial(a, 2) for a in J])
                sides.append(saturate(_module(R, rank, A, padded), Jr))
            _check_recorded(sides[0])
            assert _data(sides[0]) == _data(sides[1]), (order, A, J)


def _indices(P: Submodule):
    return tuple(sorted(g.terms[0][2].index(1) for g in P.generators))


def test_min_ass_by_minimal_covers_matches_the_oracle_and_the_split():
    for n, _rank, order, rng in _cases(30):
        gens = [a for _c, a, _k in _draw(rng, n, 1, rng.randint(0, 4))]
        R = RingContext(NAMES[:n], ORDERS[order])
        primes = min_ass(ideal(R, [R.monomial(a) for a in gens]))
        for P in primes:
            _check_recorded(P)
        assert sorted(map(_indices, primes)) == monomial_minimal_primes(
            ideal(R, [R.monomial(a) for a in gens])
        )
        old = RingContext(NAMES[:n], ORDERS[order])
        I = ideal(old, [old.monomial(a) for a in gens])
        split = decompose._minimalize(decompose._min_ass_rec(I, decompose._Search(16)))
        assert [_data(P) for P in primes] == [_data(P) for P in split], (order, gens)


def test_the_closed_forms_make_no_groebner_run(monkeypatch):
    R = RingContext(NAMES, ORDERS["lp"])
    x, y, z, w = (R.variable(i) for i in range(4))
    I = ideal(R, [x * x * y, y * z**3, 2 * z * w, x * w * w])
    M = Submodule(R, 2, [unit_vector(R, 2, 0).scale(x * y), unit_vector(R, 2, 1).scale(z * z)])
    N = Submodule(R, 2, [unit_vector(R, 2, 0).scale(y * y), unit_vector(R, 2, 1).scale(-x)])
    canonical(I)  # min_ass reads I's reduced basis, which this run makes

    def refuse(*_args):
        raise AssertionError("no run expected")

    monkeypatch.setattr(groebner._GroebnerCache, "_run", refuse)
    monkeypatch.setattr(groebner, "_t_ring", refuse)
    K = intersect(M, N)
    assert [g.components for g in canonical(K).generators] == [
        (R.zero(), x * z * z), (x * y * y, R.zero())
    ]
    for J in ([x], [y, R.constant(3)], [R.zero(), z * w], []):
        canonical(saturate(I, ideal(R, J)))
        canonical(saturate(K, ideal(R, J)))
    # zeroing z's exponents leaves x^2 y, y, w, x w^2, of which y and w are minimal
    assert canonical(saturate(I, ideal(R, [z]))).generators == (w, y)
    # the supports xy, yz, zw, xw form a 4-cycle, whose minimal covers are
    # {x, z} and {y, w}; (w, y) renders first
    primes = min_ass(I)
    assert [_indices(P) for P in primes] == [(1, 3), (0, 2)]
    assert all(codim(P) == 2 and is_sub(I, P) for P in primes)


def test_minimal_covers_branch_on_a_missed_support():
    covers = decompose._minimal_covers
    # {x, y} first: the branch y then needs x, which {x} alone covers
    assert covers([0b11, 0b01]) == {0b01}
    # the 4-cycle xy, yz, zw, xw
    assert covers([0b0011, 0b0110, 0b1100, 0b1001]) == {0b0101, 0b1010}
    # the zero ideal has the empty cover, a constant generator none
    assert covers([]) == {0}
    assert covers([0b1, 0]) == set()
