"""Reduced bases written down with no Groebner run: P^m F for a prime P whose
reduced basis is {x_i - a_i : i in S}, a rational point's ideal being the
case m = 1 (`groebner.linear_power`).  Each recorded basis must equal a cold
engine run, on a fresh ring that holds no memo, both of its own generators
and of the products that define it."""

import importlib
import random
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import primarydec
from primarydec import cli, decompose, groebner
from primarydec.decompose import min_ass, primary_component, primary_decomposition
from primarydec.groebner import GroebnerBasis, buchberger, linear_basis, linear_power
from primarydec.polyring import (
    TERM_OVER_POSITION,
    MonomialOrder,
    RingContext,
    Submodule,
    from_terms,
    full_module,
    ideal,
)

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    [
        *(ROOT / "tests" / "fixtures").glob("*.primdec"),
        *(ROOT / "tests" / "fixtures" / "orders").glob("*.primdec"),
        *(ROOT / "tests" / "regressions").glob("*.primdec"),
    ]
)
ORDERS = {
    "dp": MonomialOrder(),
    "lp": MonomialOrder("lex"),
    "wp": MonomialOrder(weights=(3, 1, 2)),
    "block": MonomialOrder("block", blocks=((2,),)),
    "dp-top": MonomialOrder(module_extension=TERM_OVER_POSITION),
}
ROOTS = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def _cold_run(A: Submodule) -> GroebnerBasis:
    """A `_GroebnerCache._run` of A's generators on a fresh ring equal to A's."""
    fresh = RingContext(A.ring.variables, A.ring.order)
    gens = [from_terms(fresh, g.rank, g.terms, g.den) for g in A.generators]
    return groebner._memo(fresh)._run(Submodule(fresh, A.ambient_rank, gens), fresh.order, None)


def _check_recorded(lins, T: Submodule, M: Submodule):
    """M = linear_power(lins, T) is recorded as the reduced basis a cold run
    gives, from M's own generators and from every product p t."""
    ring = M.ring
    G = groebner._memo(ring).entries[M, ring.order, None]
    products = Submodule(ring, T.ambient_rank, [t.scale(p) for t in T.generators for p in lins])
    for H in (_cold_run(M), _cold_run(products)):
        assert G.module == H.module
        assert G._elems == H._elems and G.order == H.order


def _spy(monkeypatch):
    """Check every linear_power call decompose makes; returns the calls."""
    calls = []

    def checking(lins, T):
        M = linear_power(lins, T)
        _check_recorded(lins, T, M)
        calls.append((len(lins), T.ambient_rank, M))
        return M

    monkeypatch.setattr(decompose, "linear_power", checking)
    return calls


def _run_case(case, perfbench: Path):
    """One perfbench case, called as perfbench/case.py calls it."""
    if case.fixture:
        path = perfbench.parent / case.fixture
        source, base_dir = path.read_text(), path.parent
    else:
        source, base_dir = case.script, perfbench.parent
    script = cli.parse_script(source)
    module = next(s for s in script.statements if isinstance(s, cli.Command)).module
    if case.mode == "cli":
        cli.render_json(cli.run_script(script, bound=50, seed=0, base_dir=base_dir))
    elif case.mode == "primdec":
        primarydec.primary_decomposition(module, bound=50, seed=0)
    else:
        primarydec.min_ass(module, seed=0)


def test_every_basis_recorded_on_the_fixtures_and_regressions_equals_a_cold_run(monkeypatch):
    calls = _spy(monkeypatch)
    for path in SCRIPTS:
        cli.render_json(cli.run_script(cli.parse_script(path.read_text()), base_dir=path.parent))
    # ideals (point ideals among them) and modules both record bases
    ranks = {rank for _n, rank, _M in calls}
    assert 1 in ranks and max(ranks) > 1


@pytest.mark.parametrize("seed", [0, 41])
@pytest.mark.parametrize("workload", ["cli", "points", "minass"])
def test_every_basis_recorded_on_the_benchmark_corpus_equals_a_cold_run(
    monkeypatch, workload, seed
):
    perfbench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    corpus = importlib.import_module("corpus")
    calls = _spy(monkeypatch)
    for case in corpus.cases(workload, seed):
        _run_case(case, perfbench)
    assert calls


def _no_run(monkeypatch, call):
    """call() with every engine run kept: returns (result, [(input, output)])."""
    runs = []
    real = groebner._GroebnerCache._run

    def recording(self, A, order, split):
        runs.append((A, real(self, A, order, split)))
        return runs[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(groebner._GroebnerCache, "_run", recording)
        return call(), runs


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("name", list(ORDERS))
def test_powers_of_a_linear_prime_are_recorded_as_a_cold_run_gives_them(monkeypatch, name, rank):
    rng = random.Random(f"{name}-{rank}")
    for _ in range(3):
        R = RingContext(("x", "y", "z"), ORDERS[name])
        S = rng.sample(range(R.n), rng.randint(1, R.n))
        gens = [R.variable(i) - rng.choice(ROOTS) for i in S]
        lins = linear_basis(ideal(R, gens))
        assert lins is not None and len(lins) == len(S)
        T = naive = full_module(R, rank)
        for _m in range(4):
            T, runs = _no_run(monkeypatch, lambda: linear_power(lins, T))
            G, more = _no_run(monkeypatch, lambda: buchberger(T))
            assert runs == more == []
            # P^m F from P's given generators, as every product of m of them
            products = dict.fromkeys(v.scale(f) for f in gens for v in naive.generators)
            naive = Submodule(R, rank, products)
            for H in (_cold_run(T), _cold_run(naive)):
                assert G.module == H.module
                assert G._elems == H._elems and G.order == H.order


def test_linear_basis_declines_every_other_ideal():
    R = RingContext(("x", "y", "z"))
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    assert linear_basis(ideal(R, [x**2 - 2, y])) is None
    assert linear_basis(ideal(R, [x - y, z])) is None
    assert linear_basis(ideal(R, [R.one()])) is None
    assert linear_basis(ideal(R, [2 * y - 1, 3 * x])) == (y - Fraction(1, 2), x)


def test_a_prime_that_is_not_linear_still_takes_the_engine_path(monkeypatch):
    R = RingContext(("x", "y"))
    x, y = R.variable(0), R.variable(1)
    P = buchberger(ideal(R, [x**2 - 2, y])).module
    A = ideal(R, [(x**2 - 2) ** 2, y])
    calls = _spy(monkeypatch)
    (Q, m, _trace), runs = _no_run(monkeypatch, lambda: primary_component(A, P, primes=[P]))
    assert calls == [] and m == 2
    assert Q == buchberger(A).module
    # P^2 F came from a run on the products of P's generators with P's
    square = decompose._ideal_times_module(P, P)
    assert square in [A for A, _G in runs]


def test_min_ass_of_a_rational_grid_runs_the_engine_for_no_point_ideal(monkeypatch):
    R = RingContext(("x", "y", "z"))
    roots = (1, -2, 3, Fraction(1, 2))
    I = ideal(R, [prod((R.variable(i) - a for a in roots), start=R.one()) for i in range(R.n)])
    primes, runs = _no_run(monkeypatch, lambda: min_ass(I))
    assert len(primes) == 64
    # the one run is I's own basis: no point's ideal is run
    assert [A for A, _G in runs] == [I]


def test_the_witness_loop_of_three_monomials_runs_the_engine_for_no_power(monkeypatch):
    R = RingContext(("x", "y", "z"))
    x, y, z = R.variable(0), R.variable(1), R.variable(2)
    P = ideal(R, [z, y, x])
    powers = []

    def recording(lins, T):
        powers.append(linear_power(lins, T))
        return powers[-1]

    monkeypatch.setattr(decompose, "linear_power", recording)
    I = ideal(R, [x**2 * y, x * z**2, y**2 * z])
    result, runs = _no_run(monkeypatch, lambda: primary_decomposition(I))
    (top,) = [C for C in result.components if C.prime == P]
    assert top.witness_exponent == 4
    # P^m F for m = 1..4, each from a cold run on a fresh ring
    fresh = RingContext(R.variables)
    expected = [full_module(fresh, 1)]
    for _m in range(4):
        expected.append(_cold_run(decompose._ideal_times_module(P, expected[-1])).module)
    assert all(M in powers for M in expected[1:])
    # neither a power nor P times the one before it is the input of a run
    ran = {A for A, _G in runs}
    assert not ran & set(expected[1:])
    assert not ran & {decompose._ideal_times_module(P, M) for M in expected[:-1]}
