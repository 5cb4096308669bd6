"""The points step of min_ass: a zero-dimensional ideal whose variables all
have minimal polynomials that split over Q is read off the grid of their
roots.  Each input is decomposed with the step and with the step made to
decline, and the minimal primes must agree."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from primarydec import decompose
from primarydec.decompose import min_ass
from primarydec.groebner import canonical, intersect_many
from primarydec.polyring import MonomialOrder, RingContext, ideal, render_polynomial
from primarydec.unifactor import univariate_factor

ROOTS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3))
ORDERS = (
    MonomialOrder("degrevlex"),
    MonomialOrder("lex"),
    MonomialOrder("degrevlex", weights=(3, 1, 2)),
)


def _ring(rng: random.Random) -> RingContext:
    n = rng.choice((2, 3))
    order = rng.choice(ORDERS)
    if order.weights:
        order = MonomialOrder("degrevlex", weights=order.weights[:n])
    return RingContext(("x", "y", "z")[:n], order)


def _grid_ideal(R: RingContext, roots) -> list:
    """f_i(x_i) for each variable, f_i vanishing at roots[i]."""
    return [
        prod((R.variable(i) - r for r in rs), start=R.one()) for i, rs in enumerate(roots)
    ]


def _point_ideal(R: RingContext, points):
    """The vanishing ideal of a set of rational points."""
    maximal = [ideal(R, [R.variable(i) - a for i, a in enumerate(p)]) for p in points]
    return intersect_many(maximal)


def _text(primes) -> list:
    return [[render_polynomial(g) for g in P.generators] for P in primes]


def _compare(monkeypatch, I, applies: bool):
    """min_ass of I with the points step and with it declining agree, and
    the step returned primes exactly when `applies`."""
    results = []
    real = decompose._rational_points

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(decompose, "_rational_points", spy)
    with_step = _text(min_ass(I))
    assert (results[0] is not None) == applies
    monkeypatch.setattr(decompose, "_rational_points", lambda *args: None)
    assert _text(min_ass(I)) == with_step
    return with_step


@pytest.mark.parametrize("seed", range(6))
def test_full_grids_with_signed_and_fractional_roots(monkeypatch, seed):
    rng = random.Random(seed)
    R = _ring(rng)
    roots = [rng.sample(ROOTS, rng.randint(2, 3)) for _ in range(R.n)]
    got = _compare(monkeypatch, ideal(R, _grid_ideal(R, roots)), True)
    assert len(got) == prod(map(len, roots))


@pytest.mark.parametrize("seed", range(6))
def test_vanishing_ideals_of_random_subsets_of_a_grid(monkeypatch, seed):
    rng = random.Random(100 + seed)
    R = _ring(rng)
    grid = list(product(*(rng.sample(ROOTS, 2) for _ in range(R.n))))
    points = rng.sample(grid, rng.randint(2, len(grid)))
    # the step applies when the points fill the grid of their coordinates
    fill = prod(len({p[i] for p in points}) for i in range(R.n)) == len(points)
    got = _compare(monkeypatch, _point_ideal(R, points), fill)
    assert len(got) == len(points)


def test_a_squared_grid_is_not_radical_and_keeps_its_points(monkeypatch):
    R = RingContext(("x", "y", "z"), MonomialOrder("degrevlex"))
    f = _grid_ideal(R, [(1, -2), (Fraction(1, 2), 3), (-1, Fraction(-2, 3))])
    I = ideal(R, [a * b for a, b in product(f, f)])
    assert len(_compare(monkeypatch, I, True)) == 8


def test_a_diagonal_set_exceeds_the_guard_and_the_step_declines(monkeypatch):
    # three points on x = y = z: dim 3, but their roots span a grid of 27
    R = RingContext(("x", "y", "z"), MonomialOrder("degrevlex"))
    I = _point_ideal(R, [(r, r, r) for r in (1, -2, Fraction(1, 2))])
    assert len(_compare(monkeypatch, I, False)) == 3


def test_a_grid_point_where_a_generator_does_not_vanish_is_no_prime(monkeypatch):
    # (1, 1) doubled, (2, 2) and (1, 2): dim 4 covers the grid of 4 points,
    # and the step must drop (2, 1), where the ideal does not vanish
    R = RingContext(("x", "y"), MonomialOrder("degrevlex"))
    x, y = R.variable(0), R.variable(1)
    doubled = ideal(R, [(x - 1) ** 2, (x - 1) * (y - 1), (y - 1) ** 2])
    I = intersect_many([doubled, _point_ideal(R, [(2, 2)]), _point_ideal(R, [(1, 2)])])
    assert _text(min_ass(I)) == _text(min_ass(_point_ideal(R, [(1, 1), (2, 2), (1, 2)])))
    assert len(_compare(monkeypatch, I, True)) == 3


def test_a_grid_of_64_points_makes_one_zero_dimensional_step_and_one_factorization(
    monkeypatch,
):
    steps, factored = [], []
    real = decompose._zero_dim_primes

    def count_steps(*args):
        steps.append(args)
        return real(*args)

    def count_factors(coeffs):
        factored.append(coeffs)
        return univariate_factor(coeffs)

    monkeypatch.setattr(decompose, "_zero_dim_primes", count_steps)
    monkeypatch.setattr(decompose, "univariate_factor", count_factors)
    R = RingContext(("x", "y", "z"), MonomialOrder("degrevlex"))
    I = ideal(R, _grid_ideal(R, [(1, 2, 3, 4)] * 3))
    primes = min_ass(I)
    assert len(primes) == 64 and len(steps) == 1 and len(factored) == 1
    assert all(P == canonical(P) for P in primes)
