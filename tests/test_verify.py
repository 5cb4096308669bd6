import gc
import random
import weakref
from itertools import permutations

from primarydec.decompose import min_ass, primary_decomposition
from primarydec.groebner import buchberger, canonical, is_member, module_equal
from primarydec.homology import equidim_hull
from primarydec.polyring import (
    FreeElement,
    MonomialOrder,
    RingContext,
    Submodule,
    ideal,
    unit_vector,
)
import primarydec.verify as verify
from primarydec.verify import validate_decomposition

from oracles import (
    membership_oracle,
    monomial_hull_oracle,
    monomial_minimal_primes,
    monomial_primdec_oracle,
    validation_reference,
)


def ring_xy():
    return RingContext(("x", "y"), MonomialOrder(kind="degrevlex"))


def ring_xyz():
    return RingContext(("x", "y", "z"), MonomialOrder(kind="degrevlex"))


def mono_ideal(R, exps_list):
    return ideal(R, [R.monomial(e) for e in exps_list])


def gens_text(A):
    out = []
    for g in canonical(A).generators:
        out.append(tuple(str(p) for p in g.components))
    return out


def test_oracle_x2_xy():
    R = ring_xy()
    comps = monomial_primdec_oracle(mono_ideal(R, [(2, 0), (1, 1)]))
    assert [p for p, _g in comps] == [(0,), (0, 1)]
    assert comps[0][1] == ((1, 0),)
    assert ((0, 1) in comps[1][1]) and ((2, 0) in comps[1][1])


def test_oracle_irreducible_split_three_vars():
    R = ring_xyz()
    I = mono_ideal(R, [(2, 1, 0), (1, 0, 2), (0, 2, 1)])
    comps = monomial_primdec_oracle(I)
    primes = [p for p, _g in comps]
    assert primes == [(0, 1), (0, 2), (1, 2), (0, 1, 2)]


def test_oracle_zero_and_primary():
    R = ring_xy()
    assert monomial_primdec_oracle(ideal(R, [])) == [((), ())]
    comps = monomial_primdec_oracle(mono_ideal(R, [(3, 0)]))
    assert comps == [((0,), ((3, 0),))]


def test_hull_oracle_matches_engine_simple():
    R = ring_xy()
    I = mono_ideal(R, [(2, 0), (1, 1)])
    assert module_equal(monomial_hull_oracle(I), equidim_hull(I))
    assert gens_text(monomial_hull_oracle(I)) == [("x",)]


def test_minimal_primes_oracle():
    R = ring_xyz()
    I = mono_ideal(R, [(1, 1, 0), (1, 0, 1)])
    assert monomial_minimal_primes(I) == [(0,), (1, 2)]


def random_monomial_ideal(R, rng, max_gens=5, max_deg=4):
    n = R.n
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        exps = [0] * n
        total = rng.randint(1, max_deg)
        for _ in range(total):
            exps[rng.randrange(n)] += 1
        gens.append(R.monomial(tuple(exps)))
    return ideal(R, gens)


def test_hull_oracle_agreement_random():
    rng = random.Random(5)
    R = ring_xyz()
    for _ in range(25):
        I = random_monomial_ideal(R, rng)
        assert module_equal(monomial_hull_oracle(I), equidim_hull(I))


def test_minimal_prime_agreement_random():
    rng = random.Random(6)
    R = ring_xyz()
    for _ in range(15):
        I = random_monomial_ideal(R, rng)
        expected = monomial_minimal_primes(I)
        got = []
        for P in min_ass(I):
            idx = []
            for g in P.generators:
                p = g.components[0]
                assert len(p.terms) == 1
                exps = p.terms[0][2]
                assert sum(exps) == 1
                idx.append(exps.index(1))
            got.append(tuple(sorted(idx)))
        assert sorted(got) == expected, str(gens_text(I))


def test_monomial_module_decomposition_agrees_with_the_row_oracle():
    # For M = I_1 e_1 + ... + I_s e_s with monomial ideals I_j, Ass(F/M) is
    # the union of the Ass(R/I_j), and the component of M at an isolated prime
    # P is, row by row, I_j's component at P, or the whole row when P is not
    # a prime of I_j (the paper's theorem on monomial modules).
    rng = random.Random(11)
    R = ring_xyz()

    def direct_sum(gens_by_row):
        s = len(gens_by_row)
        return Submodule(R, s, [
            FreeElement(R, tuple(p if k == j else R.zero() for k in range(s)))
            for j, gens in enumerate(gens_by_row)
            for p in gens
        ])

    for _ in range(12):
        rows = [
            random_monomial_ideal(R, rng, max_gens=3, max_deg=3)
            for _ in range(rng.randint(2, 3))
        ]
        M = direct_sum([[g.components[0] for g in I.generators] for I in rows])
        oracles = [dict(monomial_primdec_oracle(I)) for I in rows]
        union = {p for oracle in oracles for p in oracle}
        res = primary_decomposition(M)
        got = {canonical(c.prime): c for c in res.components}
        prime_of = {p: canonical(ideal(R, [R.variable(i) for i in p])) for p in union}
        assert len(res.components) == len(union)
        assert set(got) == set(prime_of.values())
        for p, P in prime_of.items():
            isolated = not any(set(q) < set(p) for q in union)
            assert got[P].embedded is not isolated
            if isolated:
                expected = direct_sum([
                    [R.monomial(m) for m in oracle.get(p, [(0, 0, 0)])] for oracle in oracles
                ])
                assert module_equal(got[P].module, expected)
        assert validate_decomposition(M, res.components).ok


def test_membership_oracle_positive():
    R = ring_xy()
    x, y = R.variable(0), R.variable(1)
    A = ideal(R, [x * x, x * y + y * y])
    v = (x * y) * (x * x) + (x - y) * (x * y + y * y)
    assert membership_oracle(v, A, 2)
    assert membership_oracle(R.zero(), A, 0)


def test_membership_oracle_negative():
    R = ring_xy()
    x, y = R.variable(0), R.variable(1)
    A = ideal(R, [x * x, y * y])
    assert not membership_oracle(x * y, A, 6)
    assert not membership_oracle(R.one(), A, 4)


def test_membership_oracle_bound_sensitivity():
    R = ring_xy()
    x = R.variable(0)
    A = ideal(R, [x])
    v = x * x * x
    assert not membership_oracle(v, A, 1)
    assert membership_oracle(v, A, 2)


def test_membership_oracle_module():
    R = ring_xy()
    x, y = R.variable(0), R.variable(1)
    A = Submodule(R, 2, [FreeElement(R, (x, y)), FreeElement(R, (R.zero(), x))])
    v = FreeElement(R, (y * x, y * y + x * x))
    assert membership_oracle(v, A, 1)
    w = FreeElement(R, (x, R.zero()))
    assert not membership_oracle(w, A, 4)


def test_membership_oracle_vs_groebner_random():
    rng = random.Random(9)
    R = ring_xy()
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = R.zero()
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                p = p + R.monomial(e, rng.randint(-2, 2))
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        A = ideal(R, gens)
        combo = R.zero()
        for g in gens:
            e = (rng.randint(0, 1), rng.randint(0, 1))
            combo = combo + R.monomial(e, rng.randint(-1, 1)) * g
        assert membership_oracle(combo, A, 2)
        assert is_member(FreeElement(R, (combo,)), buchberger(A))
        probe = R.monomial((rng.randint(0, 2), rng.randint(0, 2)), 1)
        if not is_member(FreeElement(R, (probe,)), buchberger(A)):
            assert not membership_oracle(probe, A, 5)


def test_validator_accepts_engine_output():
    R = ring_xy()
    I = mono_ideal(R, [(2, 0), (1, 1)])
    res = primary_decomposition(I)
    report = validate_decomposition(I, res.components)
    assert report.ok
    assert report.as_dict()["ok"] is True


def test_validator_finds_engine_output_irredundant():
    R = ring_xyz()
    x, y, z = (R.variable(i) for i in range(3))
    embedded_mix = ideal(R, [z * z * (x - 1) ** 2, x * y * (y - 1), x**3 * z - z])
    res = primary_decomposition(embedded_mix)
    assert [c.embedded for c in res.components].count(True) == 2
    assert validate_decomposition(embedded_mix, res.components).irredundant
    R = ring_xy()
    x, y = R.variable(0), R.variable(1)
    grid = ideal(R, [x * x - x, y * y - y])
    res = primary_decomposition(grid)
    assert len(res.components) == 4
    assert validate_decomposition(grid, res.components).irredundant


def test_validator_accepts_pairs():
    R = ring_xy()
    I = mono_ideal(R, [(2, 0), (1, 1)])
    comps = [
        (mono_ideal(R, [(1, 0)]), mono_ideal(R, [(1, 0)])),
        (mono_ideal(R, [(2, 0), (0, 1)]), mono_ideal(R, [(1, 0), (0, 1)])),
    ]
    assert validate_decomposition(I, comps).ok


def test_validator_rejects_wrong_intersection():
    R = ring_xy()
    I = mono_ideal(R, [(2, 0), (1, 1)])
    comps = [(mono_ideal(R, [(1, 0)]), mono_ideal(R, [(1, 0)]))]
    report = validate_decomposition(I, comps)
    assert not report.ok
    assert not report.intersection_ok


def test_validator_rejects_nonprimary_component():
    R = ring_xy()
    I = mono_ideal(R, [(2, 0), (1, 1)])
    comps = [
        (I, mono_ideal(R, [(1, 0)])),
        (mono_ideal(R, [(2, 0), (0, 1)]), mono_ideal(R, [(1, 0), (0, 1)])),
    ]
    report = validate_decomposition(I, comps)
    assert not report.components_primary


def test_validator_rejects_duplicate_primes():
    R = ring_xy()
    I = mono_ideal(R, [(2, 0)])
    comps = [
        (mono_ideal(R, [(2, 0)]), mono_ideal(R, [(1, 0)])),
        (mono_ideal(R, [(3, 0)]), mono_ideal(R, [(1, 0)])),
    ]
    report = validate_decomposition(I, comps)
    assert not report.primes_distinct


def test_validator_rejects_redundant_component():
    R = ring_xy()
    I = mono_ideal(R, [(1, 1)])
    comps = [
        (mono_ideal(R, [(1, 0)]), mono_ideal(R, [(1, 0)])),
        (mono_ideal(R, [(0, 1)]), mono_ideal(R, [(0, 1)])),
        (
            mono_ideal(R, [(2, 0), (1, 1), (0, 2)]),
            mono_ideal(R, [(1, 0), (0, 1)]),
        ),
    ]
    report = validate_decomposition(I, comps)
    assert not report.irredundant


def test_validator_redundant_report_in_every_order():
    # the redundant (x, y)-primary piece sits first, in the middle and last,
    # which reach the suffix, the prefix-and-suffix and the prefix cases
    R = ring_xy()
    I = mono_ideal(R, [(1, 1)])
    comps = [
        (mono_ideal(R, [(1, 0)]), mono_ideal(R, [(1, 0)])),
        (mono_ideal(R, [(0, 1)]), mono_ideal(R, [(0, 1)])),
        (
            mono_ideal(R, [(2, 0), (1, 1), (0, 2)]),
            mono_ideal(R, [(1, 0), (0, 1)]),
        ),
    ]
    for perm in permutations(comps):
        assert validate_decomposition(I, perm).as_dict() == {
            "ok": False,
            "intersection": True,
            "components_primary": True,
            "primes_distinct": True,
            "irredundant": False,
            "messages": ["a component is redundant"],
        }
    I = mono_ideal(R, [(2, 0), (1, 1)])
    comps = [(I, mono_ideal(R, [(1, 0)])), (mono_ideal(R, [(1, 0)]),) * 2]
    assert validate_decomposition(I, comps).messages == (
        "a component is not primary for its claimed prime",
        "two components share a prime",
        "a component is redundant",
    )


def test_validator_makes_at_most_three_intersections_per_component(monkeypatch):
    R = ring_xyz()
    x, y, z = (R.variable(i) for i in range(3))
    grid = ideal(R, [x * x - x, y * y - y, z * z - z])
    res = primary_decomposition(grid)
    k = len(res.components)
    assert k == 8
    calls = []
    real = verify.intersect

    def counted(A, B):
        calls.append(1)
        return real(A, B)

    monkeypatch.setattr(verify, "intersect", counted)
    assert validate_decomposition(grid, res.components).ok
    # the points are isolated: one fold checks the intersection, and no
    # all-but-one intersection is needed
    assert 0 < len(calls) <= k


def test_validator_full_module_empty_components():
    R = ring_xy()
    assert validate_decomposition(ideal(R, [R.one()]), []).ok
    assert not validate_decomposition(mono_ideal(R, [(1, 0)]), []).ok


def test_validator_reads_redundant_when_the_intersection_fails():
    # (x), (y) and (z) meet to (xyz), not to (xy), and without (z) they meet
    # to (xy): (z) is redundant although its prime contains no other
    R = ring_xyz()
    x, y, z = (R.variable(i) for i in range(3))
    comps = [(ideal(R, [v]), ideal(R, [v])) for v in (x, y, z)]
    assert validate_decomposition(ideal(R, [x * y]), comps).as_dict() == {
        "ok": False,
        "intersection": False,
        "components_primary": True,
        "primes_distinct": True,
        "irredundant": False,
        "messages": [
            "components do not intersect to the input",
            "a component is redundant",
        ],
    }


def _altered(pairs, extras):
    """The pairs permuted, less one, with one twice, with an extra
    component, and with two primes swapped."""
    k = len(pairs)
    yield pairs
    yield pairs[::-1]
    yield pairs[1:] + pairs[:1]
    for i in range(k):
        yield pairs[:i] + pairs[i + 1 :]
    yield pairs + pairs[:1]
    for extra in extras:
        yield [extra] + pairs
    for i in range(k - 1):
        (qa, pa), (qb, pb) = pairs[i], pairs[i + 1]
        yield pairs[:i] + [(qa, pb), (qb, pa)] + pairs[i + 2 :]


def test_validator_agrees_with_the_all_but_one_reference(monkeypatch):
    calls = []
    real = verify.intersect

    def counted(A, B):
        calls.append(1)
        return real(A, B)

    monkeypatch.setattr(verify, "intersect", counted)
    R2, R3 = ring_xy(), ring_xyz()
    x, y = R2.variable(0), R2.variable(1)
    X, Y, Z = (R3.variable(i) for i in range(3))
    zero = R2.zero()
    inputs = [
        ideal(R2, [x**2, x * y]),
        ideal(R2, [x * x - x, y * y - y]),
        ideal(R3, [X * Y]),
        ideal(R3, [X * Y, X * Z**2]),
        Submodule(R2, 2, [FreeElement(R2, (x * y, zero)), FreeElement(R2, (zero, x**2))]),
    ]
    rejected = 0
    for M in inputs:
        R, s = M.ring, M.ambient_rank
        v = [R.variable(i) for i in range(R.n)]
        # P F for P the maximal ideal at the origin, which contains M, and
        # for a prime that does not
        extras = []
        for P in (v, [v[0] - 7]):
            PF = [unit_vector(R, s, j).scale(f) for f in P for j in range(s)]
            extras.append((Submodule(R, s, PF), ideal(R, P)))
        pairs = [(c.module, c.prime) for c in primary_decomposition(M).components]
        for altered in _altered(pairs, extras):
            want = validation_reference(M, altered)
            calls.clear()
            assert validate_decomposition(M, altered).as_dict() == want
            assert len(calls) <= 3 * len(altered)
            rejected += not want["ok"]
    assert rejected > 30


def test_a_second_validation_over_a_ring_derives_no_unit_keys(monkeypatch):
    # the validator builds its block orders afresh on every call, and the
    # ring keeps one instance of each: new runs in them derive no unit keys.
    # Each has an embedded component at (x, z), which the validator alone
    # takes a basis of in the block order x, z > y.
    R = ring_xyz()
    x, y, z = (R.variable(i) for i in range(3))
    M, N = ideal(R, [x**2 * y, x * z]), ideal(R, [x**2 * y, x * z**2])
    first, second = primary_decomposition(M), primary_decomposition(N)
    assert validate_decomposition(M, first.components).ok
    derived = []
    original = MonomialOrder._derive_units

    def counting(order, n):
        derived.append(order)
        return original(order, n)

    monkeypatch.setattr(MonomialOrder, "_derive_units", counting)
    assert validate_decomposition(N, second.components).ok
    assert derived == []


def test_what_is_kept_for_a_ring_goes_with_the_ring():
    # variables of its own, so that nothing made before equals this ring
    R = RingContext(("r", "s", "t"))
    x, y, z = (R.variable(i) for i in range(3))
    M = ideal(R, [x * y, x * z**2])
    result = primary_decomposition(M)
    report = validate_decomposition(M, result.components)
    assert report.ok
    ring = weakref.ref(R)
    del R, x, y, z, M, result, report
    gc.collect()
    assert ring() is None
