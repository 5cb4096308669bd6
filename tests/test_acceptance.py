"""Acceptance gate: eight checks, each printing one pass or fail line.

Run with -s to see the lines inline; every check carries its stated time
budget and exactness requirement.
"""

import functools
import json
import random
import time
from pathlib import Path

from primarydec.cli import main as cli_main
from primarydec.cli import parse_script
from primarydec.decompose import (
    localize_module,
    min_ass,
    primary_decomposition,
)
from primarydec.groebner import (
    buchberger,
    canonical,
    codim,
    intersect,
    is_member,
    is_sub,
    is_unit_ideal,
    module_equal,
    normal_form,
    saturate,
)
from primarydec.homology import equidim_hull, ext_module
from primarydec.polyring import (
    FreeElement,
    MonomialOrder,
    RingContext,
    Submodule,
    ideal,
    render_polynomial,
)
from primarydec.verify import validate_decomposition

from oracles import membership_oracle, monomial_hull_oracle, quotient_by_ideal

FIXTURES = Path(__file__).parent / "fixtures"


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {n} ({label}): FAIL")
                raise
            elapsed = time.perf_counter() - started
            print(f"\ncriterion {n} ({label}): PASS ({elapsed:.2f}s)")

        return wrapper

    return deco


def ring(names):
    return RingContext(tuple(names), MonomialOrder(kind="degrevlex"))


def itext(A):
    return [render_polynomial(g.components[0]) for g in canonical(A).generators]


@functools.lru_cache(maxsize=1)
def monomial_corpus():
    """50 random monomial ideals: at most 4 variables, 6 generators, degree 4."""
    rng = random.Random(20260819)
    rings = {k: ring("abcd"[:k]) for k in (2, 3, 4)}
    out = []
    for _ in range(50):
        R = rings[rng.choice((2, 3, 3, 4))]
        gens = []
        for _ in range(rng.randint(1, 6)):
            exps = [0] * R.n
            for _ in range(rng.randint(1, 4)):
                exps[rng.randrange(R.n)] += 1
            gens.append(R.monomial(tuple(exps)))
        out.append(ideal(R, gens))
    return tuple(out)


def reference_inputs():
    R2 = ring(("x", "y"))
    x, y = R2.variable(0), R2.variable(1)
    I1 = ideal(R2, [x * x, x * y])
    R3 = ring(("x", "y", "z"))
    X, Y, Z = (R3.variable(i) for i in range(3))
    I2 = ideal(R3, [X * X * Y, X * Z * Z, Y * Y * Z])
    zero = R3.zero()
    M = Submodule(
        R3,
        3,
        [
            FreeElement(R3, (X * Y, zero, Y * Z)),
            FreeElement(R3, (zero, X * Z, Z * Z)),
        ],
    )
    return I1, I2, M


@criterion(1, "embedded line worked example")
def test_criterion_1():
    started = time.perf_counter()
    R = ring(("x", "y"))
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x * x, x * y])
    res = primary_decomposition(I)
    assert len(res.components) == 2
    first, second = res.components
    assert itext(first.module) == ["x"] and itext(first.prime) == ["x"]
    assert not first.embedded
    assert itext(second.prime) == ["y", "x"] and second.embedded
    report = validate_decomposition(I, res.components)
    assert report.ok
    trace = dict(second.hull_trace)
    expected = canonical(ideal(R, [y * y, x * y, x * x]))
    assert canonical(trace[2]) == expected
    assert time.perf_counter() - started < 1.0


@criterion(2, "three monomial surfaces")
def test_criterion_2():
    started = time.perf_counter()
    _i1, I, _m = reference_inputs()
    res = primary_decomposition(I)
    primes = {tuple(itext(c.prime)): c.embedded for c in res.components}
    assert primes == {
        ("y", "x"): False,
        ("z", "x"): False,
        ("z", "y"): False,
        ("z", "y", "x"): True,
    }
    assert validate_decomposition(I, res.components).ok
    assert time.perf_counter() - started < 10.0


@criterion(3, "rank-3 module input")
def test_criterion_3():
    started = time.perf_counter()
    _i1, _i2, M = reference_inputs()
    res = primary_decomposition(M)
    assert res.components
    report = validate_decomposition(M, res.components)
    assert report.intersection_ok
    assert report.components_primary
    assert report.primes_distinct
    assert report.irredundant
    assert time.perf_counter() - started < 30.0


@criterion(4, "vanishing and grade bounds for Ext")
def test_criterion_4():
    instances = list(monomial_corpus()) + list(reference_inputs())
    for M in instances:
        n = M.ring.n
        c0 = codim(M)
        for c in range(0, c0):
            assert is_unit_ideal(ext_module(c, M)), itext(M)
        seen_nonzero = False
        for c in range(c0, n + 1):
            E = ext_module(c, M)
            if is_unit_ideal(E):
                continue
            seen_nonzero = True
            assert codim(E) >= c
        assert seen_nonzero


@criterion(5, "hull equals the monomial oracle")
def test_criterion_5():
    agreements = 0
    for I in monomial_corpus():
        if monomial_hull_oracle(I) == canonical(equidim_hull(I)):
            agreements += 1
    assert agreements == 50


@criterion(6, "containment test and witness exponents")
def test_criterion_6():
    for path in sorted(FIXTURES.glob("*.primdec")):
        script = parse_script(path.read_text())
        for stmt in script.statements:
            if getattr(stmt, "verb", None) != "primdec":
                continue
            M = stmt.module
            res = primary_decomposition(M)
            for comp in res.components:
                assert 1 <= comp.witness_exponent <= 50
                assert is_sub(M, comp.module)
                local = localize_module(M, comp.prime)
                stable = saturate(local, comp.prime)
                assert is_sub(intersect(stable, comp.module), local)


@criterion(7, "kernel property suite")
def test_criterion_7():
    started = time.perf_counter()
    R = ring(("x", "y"))

    def random_poly(rng, max_terms=3, max_deg=3, spread=3):
        p = R.zero()
        for _ in range(rng.randint(1, max_terms)):
            e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
            if sum(e) > max_deg:
                e = (e[0] % 2, e[1] % 2)
            p = p + R.monomial(e, rng.randint(-spread, spread))
        return p

    def random_ideal(rng, max_gens):
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            p = random_poly(rng)
            if not p.is_zero():
                gens.append(p)
        return ideal(R, gens) if gens else ideal(R, [R.variable(0)])

    rng = random.Random(777)
    for _ in range(200):
        A = random_ideal(rng, 3)
        G = buchberger(A)
        f = random_poly(rng)
        r = normal_form(f, G)
        assert normal_form(r, G) == r

    rng = random.Random(778)
    for _ in range(200):
        A = random_ideal(rng, 2)
        combo = R.zero()
        for g in A.generators:
            e = (rng.randint(0, 1), rng.randint(0, 1))
            combo = combo + R.monomial(e, rng.randint(-2, 2)) * g.components[0]
        assert is_member(combo, A)
        assert membership_oracle(combo, A, 6)
        probe = R.monomial((rng.randint(0, 2), rng.randint(0, 2)))
        if not is_member(probe, A):
            assert not membership_oracle(probe, A, 6)

    rng = random.Random(779)
    for _ in range(200):
        A = random_ideal(rng, 2)
        J = random_ideal(rng, 1)
        S = saturate(A, J)
        assert module_equal(quotient_by_ideal(S, J), S)

    rng = random.Random(780)
    for _ in range(200):
        A = random_ideal(rng, 2)
        B = random_ideal(rng, 2)
        C = intersect(A, B)
        assert is_sub(C, A) and is_sub(C, B)
        for a in A.generators:
            for b in B.generators:
                prod = a.components[0] * b.components[0]
                assert is_member(prod, C)
        Q = quotient_by_ideal(A, B)
        assert is_sub(A, Q)
        for q in Q.generators:
            for b in B.generators:
                assert is_member(q.components[0] * b.components[0], A)

    assert time.perf_counter() - started < 60.0


@criterion(8, "byte-identical corpus output")
def test_criterion_8(capsys):
    for path in sorted(FIXTURES.glob("*.primdec")):
        assert cli_main(["run", str(path), "--json"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["run", str(path), "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second, path.name
        expected = (path.parent / (path.stem + ".expected.json")).read_text()
        assert first == expected, path.name
        json.loads(first)
