import random
from fractions import Fraction
from itertools import product
from math import isqrt
from pathlib import Path

import pytest

from primarydec.unifactor import (
    _distinct_degree,
    _factor_mod_p,
    _frobenius,
    _frobenius_rows,
    _hensel_lift,
    _p_gcd,
    _squarefree_primes,
    univariate_factor,
)

F = Fraction


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def expand(factors):
    acc = [F(1)]
    for coeffs, mult in factors:
        for _ in range(mult):
            acc = poly_mul(acc, list(coeffs))
    return acc


def test_linear_and_constant():
    assert univariate_factor([F(3)]) == []
    assert univariate_factor([]) == []
    assert univariate_factor([F(2), F(4)]) == [((F(1, 2), F(1)), 1)]


def test_simple_split():
    # x^2 - 1 = (x-1)(x+1)
    got = univariate_factor([-1, 0, 1])
    assert got == [((F(-1), F(1)), 1), ((F(1), F(1)), 1)]


def test_root_at_zero():
    # x^3 + x^2 = x^2 (x + 1)
    got = univariate_factor([0, 0, 1, 1])
    assert ((F(0), F(1)), 2) in got
    assert ((F(1), F(1)), 1) in got


def test_irreducible_quadratic():
    assert univariate_factor([1, 0, 1]) == [((F(1), F(0), F(1)), 1)]  # x^2 + 1
    assert univariate_factor([-2, 0, 1]) == [((F(-2), F(0), F(1)), 1)]  # x^2 - 2
    assert univariate_factor([1, 2, 1]) == [((F(1), F(1)), 2)]  # (x+1)^2
    assert univariate_factor([F(5)]) == []


def test_many_modular_factors_recombine():
    # minimal polynomial of sqrt(2)+sqrt(3): irreducible but splits into
    # small pieces modulo every prime
    f = [1, 0, -10, 0, 1]
    assert univariate_factor(f) == [((F(1), F(0), F(-10), F(0), F(1)), 1)]


def test_multiplicities():
    # (x-1)^2 (x+2)^3
    f = [F(1)]
    for root, mult in [(1, 2), (-2, 3)]:
        for _ in range(mult):
            f = poly_mul(f, [F(-root), F(1)])
    got = univariate_factor(f)
    assert got == [((F(-1), F(1)), 2), ((F(2), F(1)), 3)]


def test_non_monic_rational_input():
    # 6x^2 - x - 1 = 6(x - 1/2)(x + 1/3)
    got = univariate_factor([-1, -1, 6])
    assert got == [((F(-1, 2), F(1)), 1), ((F(1, 3), F(1)), 1)]


def test_cyclotomic_like():
    # x^4 + x^3 + x^2 + x + 1 irreducible
    assert univariate_factor([1, 1, 1, 1, 1]) == [((F(1),) * 5, 1)]
    # x^6 - 1 factors into cyclotomics of degree 1, 1, 2, 2
    got = univariate_factor([-1, 0, 0, 0, 0, 0, 1])
    degs = sorted(len(c) - 1 for c, _m in got)
    assert degs == [1, 1, 2, 2]


def test_random_products_roundtrip():
    rng = random.Random(23)
    small_irreducibles = [
        [F(1), F(1)],
        [F(-1), F(1)],
        [F(2), F(1)],
        [F(1), F(0), F(1)],
        [F(-2), F(0), F(1)],
        [F(1), F(1), F(1)],
        [F(-1), F(0), F(0), F(1)],  # x^3 - 1? reducible: skip
    ]
    small_irreducibles.pop()  # keep only true irreducibles
    for _ in range(40):
        chosen = {}
        for _k in range(rng.randrange(1, 4)):
            idx = rng.randrange(len(small_irreducibles))
            chosen[idx] = chosen.get(idx, 0) + rng.randrange(1, 3)
        f = [F(rng.choice([1, 2, -3]))]
        expected = []
        for idx, mult in sorted(chosen.items()):
            coeffs = small_irreducibles[idx]
            for _ in range(mult):
                f = poly_mul(f, coeffs)
            expected.append((tuple(coeffs), mult))
        got = univariate_factor(f)
        assert sorted(got) == sorted(expected)
        # and the product of the reported factors matches f up to scale
        prod = expand(got)
        scale = f[-1] / prod[-1]
        assert [c * scale for c in prod] == f


def test_degree_stress_irreducible():
    # x^8 + x + 1? that's divisible by x^2 + x + 1; use x^8 - x - 1 instead
    # (irreducible over Q)
    f = [-1, -1, 0, 0, 0, 0, 0, 0, 1]
    got = univariate_factor(f)
    total = sum((len(c) - 1) * m for c, m in got)
    assert total == 8
    prod = expand(got)
    assert prod == [F(c) for c in f]


def test_random_products_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(41)
    for _ in range(150):
        f = [F(rng.randint(-5, 5) or 1, rng.randint(1, 7))]
        for _k in range(rng.randint(1, 4)):
            g = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
            g.append(F(rng.choice((-3, -2, -1, 1, 2, 3))))
            for _ in range(rng.choice((1, 1, 2))):
                f = poly_mul(f, g)
        got = sorted(univariate_factor(f))
        rationals = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f)]
        _content, pairs = sympy.Poly(rationals, t, domain="QQ").factor_list()
        expected = sorted(
            (tuple(F(int(c.p), int(c.q)) for c in reversed(p.monic().all_coeffs())), m)
            for p, m in pairs
        )
        assert got == expected, f


def test_strips_a_high_power_of_x():
    assert univariate_factor([0] * 100000 + [1]) == [((0, 1), 100000)]


def test_factors_mod_a_prime_above_73():
    # x^2 - D and x^2 - D^2 are x^2 mod every odd prime up to 73, so the first
    # prime that keeps them squarefree is 79
    D = 1
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73):
        D *= q
    assert univariate_factor([-D, 0, 1]) == [((-D, 0, 1), 1)]
    assert univariate_factor([-D * D, 0, 1]) == [((-D, 1), 1), ((D, 1), 1)]


def _divides_mod(g, f, p):
    """Whether the monic g divides f mod p, by long division."""
    a = [c % p for c in f]
    while len(a) >= len(g):
        c, shift = a[-1], len(a) - len(g)
        for i, y in enumerate(g):
            a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
    return not any(a)


def _irreducible_mod(f, p):
    """No monic polynomial of degree 1 .. deg f / 2 divides f mod p."""
    return all(
        not _divides_mod(list(low) + [1], f, p)
        for k in range(1, (len(f) - 1) // 2 + 1)
        for low in product(range(p), repeat=k)
    )


def _squarefree_monic_mod(p, count):
    rng = random.Random(p)
    out = []
    while len(out) < count:
        f = [rng.randrange(p) for _ in range(rng.randint(2, 7))] + [1]
        df = [(i * c) % p for i, c in enumerate(f)][1:]
        if len(_p_gcd(f, df, p)) == 1:
            out.append(f)
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factor_mod_p_splits_x_to_the_p_minus_x(p):
    f = [0, p - 1] + [0] * (p - 2) + [1]
    assert sorted(_factor_mod_p(_distinct_degree(f, p), p)) == [[c, 1] for c in range(p)]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_factor_mod_p_gives_irreducible_factors(p):
    for f in _squarefree_monic_mod(p, 25):
        factors = _factor_mod_p(_distinct_degree(f, p), p)
        prod = [1]
        for g in factors:
            assert g[-1] == 1 and len(g) > 1 and _irreducible_mod(g, p), (f, g)
            prod = [c % p for c in poly_mul(prod, g)]
        assert prod == f


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_factor_mod_p_agrees_with_sympy(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for f in _squarefree_monic_mod(p, 25):
        _lead, pairs = sympy.Poly(list(reversed(f)), t, modulus=p).factor_list()
        expected = sorted(
            [int(c) % p for c in reversed(g.all_coeffs())] for g, _mult in pairs
        )
        assert sorted(_factor_mod_p(_distinct_degree(f, p), p)) == expected, f


def _mod_p(a, g, p):
    """a mod the monic g over the prime field, by schoolbook division."""
    a = [c % p for c in a]
    while len(a) >= len(g):
        c, shift = a[-1], len(a) - len(g)
        for i, y in enumerate(g):
            a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_frobenius_rows_are_x_to_the_p_i_mod_g(p):
    rng = random.Random(p)
    for g in _squarefree_monic_mod(p, 10):
        rows = _frobenius_rows(g, p)
        assert len(rows) == len(g) - 1
        for i, row in enumerate(rows):
            assert row == _mod_p([0] * (p * i) + [1], g, p), (g, i)
        # and a^p mod g is the rows' combination with a's coefficients
        a = _mod_p([rng.randrange(p) for _ in range(len(g) - 1)], g, p)
        power = [1]
        for _k in range(p):
            power = _mod_p([c % p for c in poly_mul(power, a)], g, p) if a else []
        assert _frobenius(a, rows, p) == power


def _refuse(*_args):
    raise AssertionError("called")


def test_linear_input_takes_no_squarefree_split(monkeypatch):
    import primarydec.unifactor as unifactor

    monkeypatch.setattr(unifactor, "_squarefree_parts", _refuse)
    monkeypatch.setattr(unifactor, "_factor_part", _refuse)
    assert univariate_factor([F(3), F(-6)]) == [((F(-1, 2), F(1)), 1)]
    assert univariate_factor([0, 0, F(1, 3), 2]) == [((F(0), F(1)), 2), ((F(1, 6), F(1)), 1)]


def test_squarefree_mod_p_decides_when_yun_runs(monkeypatch):
    import primarydec.unifactor as unifactor

    yun = []

    def recorded(f):
        yun.append(f)
        return real(f)

    real = unifactor._squarefree_parts
    monkeypatch.setattr(unifactor, "_squarefree_parts", recorded)
    # squarefree mod 3
    assert univariate_factor([-2, 0, 1]) == [((F(-2), F(0), F(1)), 1)]
    assert yun == []
    # x^2 + x + 1 = (x - 1)^2 mod 3 but squarefree mod 5 and 7, which the
    # search goes on to, so Yun does not run
    assert unifactor._squarefree_primes([1, 1, 1], unifactor._SQUAREFREE_TRIES) == [5, 7]
    assert univariate_factor([1, 1, 1]) == [((F(1), F(1), F(1)), 1)]
    assert yun == []
    # (3x + 1)^2 (x + 2) keeps its square mod every prime not dividing the
    # leading coefficient 9 (3 is skipped), so Yun decides
    assert unifactor._squarefree_primes([2, 13, 24, 9], unifactor._SQUAREFREE_TRIES) == []
    assert univariate_factor([2, 13, 24, 9]) == [((F(1, 3), F(1)), 2), ((F(2), F(1)), 1)]
    assert len(yun) == 1


def _force_yun(monkeypatch):
    """No prime among the first few tried shows an input squarefree, so Yun's
    split runs; a part's own prime search is left as it is."""
    import primarydec.unifactor as unifactor

    real = unifactor._squarefree_primes
    monkeypatch.setattr(
        unifactor, "_squarefree_primes", lambda zz, tries=None: [] if tries else real(zz)
    )


def test_squarefree_mod_p_agrees_with_yun(monkeypatch):
    import primarydec.unifactor as unifactor

    rng = random.Random(24)
    inputs = []
    for _ in range(60):
        f = [F(rng.randint(1, 5), rng.randint(1, 3))]
        for _k in range(rng.randint(1, 3)):
            g = [F(rng.randint(-9, 9)) for _i in range(rng.randint(2, 4))]
            g[-1] = g[-1] or F(1)
            for _m in range(rng.choice((1, 1, 2))):
                f = poly_mul(f, g)
        inputs.append(f)
    fast = [univariate_factor(f) for f in inputs]
    _force_yun(monkeypatch)
    assert fast == [univariate_factor(f) for f in inputs]


def _sympy_factors(sympy, f):
    """sympy's monic factors of f over Q with multiplicities, sorted."""
    t = sympy.Symbol("t")
    rationals = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f)]
    _content, pairs = sympy.Poly(rationals, t, domain="QQ").factor_list()
    return sorted(
        (tuple(F(int(c.p), int(c.q)) for c in reversed(p.monic().all_coeffs())), m)
        for p, m in pairs
    )


def _compose(f, g):
    """f(g)."""
    out = [f[-1]]
    for c in reversed(f[:-1]):
        out = poly_mul(out, g)
        out[0] += c
    return out


SD4 = [F(c) for c in (1, 0, -10, 0, 1)]
SD8 = [F(c) for c in (576, 0, -960, 0, 352, 0, -40, 0, 1)]


def _many_modular_factors():
    """High-degree inputs whose factors mod small primes are many and small."""
    yield "sd8_of_x_cubed", _compose(SD8, [F(0), F(0), F(0), F(1)])
    yield "sd8_times_x2_minus_2", poly_mul(SD8, [F(-2), F(0), F(1)])
    yield "x24_minus_1", [F(-1)] + [F(0)] * 23 + [F(1)]
    yield "sd4_times_shifted_sd4", poly_mul(SD4, _compose(SD4, [F(1), F(1)]))
    yield "x6_minus_2_times_x6_minus_3", poly_mul([F(-2)] + [F(0)] * 5 + [F(1)], [F(-3)] + [F(0)] * 5 + [F(1)])


def test_pruned_recombination_agrees_with_sympy():
    # the degree sums and constant terms that recombination skips on never
    # belong to a true factor: whole factor lists against sympy's
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    cases = list(_many_modular_factors())
    rng = random.Random(34)
    while len(cases) < 13:
        f = [F(rng.choice((1, 2, 3)))]
        for _k in range(rng.randint(2, 4)):
            while True:
                g = [F(rng.randint(-5, 5)) for _i in range(rng.randint(4, 8))]
                g.append(F(rng.choice((1, 1, 2, 3))))
                if sympy.Poly([int(c) for c in reversed(g)], t).is_irreducible:
                    break
            f = poly_mul(f, g)
        cases.append((f"product_{len(cases)}", f))
    for name, f in cases:
        assert sorted(univariate_factor(f)) == _sympy_factors(sympy, f), name


def test_no_common_degree_sum_proves_irreducible_before_lifting(monkeypatch):
    # x^5 + x^2 + 1 has factors of degrees 1, 4 mod 3 and 2, 3 mod 5: no
    # proper factor degree is a sum at both, so nothing is lifted
    import primarydec.unifactor as unifactor

    f = [1, 0, 1, 0, 0, 1]

    def degrees(p):
        split = unifactor._distinct_degree(f, p)
        return sorted(d for d, g in split for _i in range((len(g) - 1) // d))

    assert unifactor._squarefree_primes(f, unifactor._SQUAREFREE_TRIES) == [3, 5]
    assert (degrees(3), degrees(5)) == ([1, 4], [2, 3])
    monkeypatch.setattr(unifactor, "_hensel_lift", _refuse)
    assert univariate_factor(f) == [((F(1), F(0), F(1), F(0), F(0), F(1)), 1)]


@pytest.mark.parametrize(
    "f",
    [
        [-1] + [0] * 15 + [1],
        [int(c) for c in _compose(SD8, [F(0), F(0), F(0), F(1)])],
        [-1] + [0] * 23 + [1],
    ],
    ids=["x16_minus_1", "sd8_of_x_cubed", "x24_minus_1"],
)
def test_hensel_lift_reaches_the_least_power_of_p_at_the_target(f):
    # x^16 - 1 lifts at 3, SD8(x^3) and x^24 - 1 at the first prime that keeps
    # them squarefree
    p = _squarefree_primes(f)[0]
    parts = _factor_mod_p(_distinct_degree([c % p for c in f], p), p)
    assert len(parts) > 2
    bound = 2 * (1 << (len(f) - 1)) * (isqrt(sum(c * c for c in f)) + 1) + 1
    for target in (p**5, p**5 + 1, bound):
        lifted, m = _hensel_lift(f, parts, p, target)
        k = 0
        while p**k < target:
            k += 1
        assert m == p**k
        prod = [1]
        for g, part in zip(lifted, parts, strict=True):
            assert g[-1] == 1 and [c % p for c in g] == part
            prod = [c % m for c in poly_mul(prod, g)]
        assert prod == [c % m for c in f]


FACTOR_CORPUS = Path(__file__).parent / "fixtures" / "univariate_factor.txt"


def _factor_corpus(path=FACTOR_CORPUS):
    """(case, input, factor list) for each line of a captured corpus."""
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        case, rest = line.split(": ")
        coeffs, factors = rest.split(" = ")
        expected = []
        for factor in factors.split(" | "):
            fac, mult = factor.split(" ^ ")
            expected.append((tuple(F(c) for c in fac.split()), int(mult)))
        yield case, [F(c) for c in coeffs.split()], expected


def test_captured_workload_inputs_keep_their_factor_lists():
    corpus = list(_factor_corpus())
    assert len(corpus) == 73
    for case, f, expected in corpus:
        assert univariate_factor(f) == expected, case


YUN_CORPUS = Path(__file__).parent / "fixtures" / "univariate_factor_yun.txt"


def test_captured_yun_inputs_keep_their_factor_lists(monkeypatch):
    import primarydec.unifactor as unifactor

    yun = []
    real = unifactor._squarefree_parts
    monkeypatch.setattr(unifactor, "_squarefree_parts", lambda f: yun.append(f) or real(f))
    corpus = list(_factor_corpus(YUN_CORPUS))
    assert len(corpus) == 21
    for k, (case, f, expected) in enumerate(corpus):
        assert univariate_factor(f) == expected, case
        assert len(yun) == k + 1, case


def _rational_products(rng, count):
    """Seeded products whose first factor is repeated, with rational
    coefficients and leading coefficients of either sign."""
    out = []
    while len(out) < count:
        f = [F(rng.choice((-5, -3, -1, 1, 2, 7)), rng.randint(1, 6))]
        for k in range(rng.randint(1, 3)):
            g = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _i in range(rng.randint(1, 3))]
            g.append(F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
            for _m in range(rng.choice((2, 3) if k == 0 else (1, 2))):
                f = poly_mul(f, g)
        if any(c for c in f[1:]):
            out.append(f)
    return out


def test_yun_over_z_agrees_with_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    _force_yun(monkeypatch)
    inputs = _rational_products(random.Random(43), 80)
    assert sum(f[-1] < 0 for f in inputs) > 10
    for f in inputs:
        assert sorted(univariate_factor(f)) == _sympy_factors(sympy, f), f


def test_z_gcd_is_sympys_gcd_made_primitive():
    sympy = pytest.importorskip("sympy")
    from primarydec.unifactor import _z_gcd

    t = sympy.Symbol("t")
    rng = random.Random(44)

    def draw(degree):
        return [rng.randint(-9, 9) for _i in range(degree)] + [rng.choice((-4, -1, 1, 2, 6))]

    pairs = [([-6, 4, 2], []), ([0, 0, -3], []), ([1, 0, 1], [1, 1]), ([2, 4], [3])]
    for _k in range(60):
        common = [rng.randint(-3, 3) for _i in range(rng.randint(0, 2))] + [rng.choice((-2, 1, 3))]
        a = [int(c) for c in poly_mul(poly_mul(common, draw(rng.randint(0, 3))), [rng.randint(1, 4)])]
        b = [int(c) for c in poly_mul(common, draw(rng.randint(0, 3)))]
        pairs.append((a, b))
    for a, b in pairs:
        g = sympy.gcd(sympy.Poly(a[::-1], t), sympy.Poly(b[::-1] or [0], t))
        _content, g = g.primitive()
        expected = [int(c) for c in reversed(g.all_coeffs())]
        if expected[-1] < 0:
            expected = [-c for c in expected]
        assert _z_gcd(a, b) == expected, (a, b)
    assert any(len(_z_gcd(a, b)) == 1 for a, b in pairs if b)


def test_an_inexact_integer_division_raises():
    from primarydec.unifactor import _z_divmod, _z_exact_div

    # 2x + 1 by 2x leaves 1; x + 1 by 2x + 2 stops at once, since 2 does not
    # divide the lead 1, though 2x + 2 divides it over Q
    assert _z_divmod([1, 2], [0, 2]) == ([1], [1])
    assert _z_divmod([1, 1], [2, 2]) == ([], [1, 1])
    for f, g in (([1, 2], [0, 2]), ([1, 1], [2, 2]), ([1, 0, 1], [1, 1])):
        with pytest.raises(ArithmeticError):
            _z_exact_div(f, g)
    assert _z_exact_div([-2, 0, 2], [2, 2]) == [-1, 1]
