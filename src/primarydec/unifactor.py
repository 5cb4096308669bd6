"""Factorization of univariate polynomials over Q.

Polynomials are coefficient sequences from the constant term upward.  All
arithmetic is on lists of ints, over Z or mod m: rationals appear only in
`univariate_factor`, which reads its input once into the primitive integer
polynomial with a positive lead and makes the factors it returns monic.  A
linear input is returned monic.  Otherwise one prime search runs per
squarefree part: the first two odd primes that do not divide the leading
coefficient and keep the part squarefree.  One such prime shows the input
squarefree over Q, so Yun's squarefree splitting runs only when none of the
first few primes does; it runs over Z, by primitive remainder sequences,
and its quotients are exact by Gauss's lemma.  The part is split by degree
modulo both primes; the degrees the two splits can sum to bound the degrees
of its factors over Q, and when no proper degree survives the part is
irreducible.  Otherwise equal-degree (Cantor-Zassenhaus) splitting runs at
the prime p with fewer factors, taking each p-th power from a Frobenius
table x^(p i) mod g made once per product g of the factors of one degree,
and one Hensel lift carries all of them at once, a factor of p per step, to
the least power of p above the coefficient bound: each factor is corrected
by its share of the error, from an inverse of its cofactor computed once mod
p.  The lifted factors are recombined by subsets, skipping those whose
degree is not a surviving sum or whose constant term does not divide the
cofactor's; exact division decides the rest.  Only monic irreducible factors
are reported; the leading coefficient of the input is discarded.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

# ---------------------------------------------------------------------------
# integer polynomial arithmetic; Yun's squarefree split over Z
# ---------------------------------------------------------------------------


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _deg(a: list) -> int:
    return len(a) - 1


def _sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    return _trim(out)


def _deriv(a: list) -> list:
    return _trim([a[i] * i for i in range(1, len(a))])


def _primitive_integer(f: list) -> list[int]:
    """The primitive integer polynomial with a positive lead that is a
    rational multiple of f, a nonzero list of ints or Fractions."""
    den = lcm(*(c.denominator for c in f))
    zz = [c.numerator * (den // c.denominator) for c in f]
    g = gcd(*zz) if zz[-1] > 0 else -gcd(*zz)
    return [c // g for c in zz]


def _z_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by g over Z.

    Division stops at the first leading coefficient that lc(g) does not
    divide, which never happens for a monic g, so the remainder is zero
    exactly when g divides f in Z[x].
    """
    a = list(f)
    q = [0] * max(0, len(a) - len(g) + 1)
    while len(a) >= len(g):
        c, r = divmod(a[-1], g[-1])
        if r:
            break
        shift = len(a) - len(g)
        q[shift] = c
        for i, y in enumerate(g):
            a[shift + i] -= c * y
        a.pop()
    return _trim(q), _trim(a)


def _z_exact_div(f: list[int], g: list[int]) -> list[int]:
    q, r = _z_divmod(f, g)
    if r:
        raise ArithmeticError("division was not exact")
    return q


def _z_gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd of the integer polynomials a != 0 and b, primitive with a
    positive lead, by a primitive remainder sequence (Brown 1971): each
    pseudo-remainder lc(b)^k a mod b is made primitive before the next step."""
    a = _primitive_integer(a)
    while b:
        b = _primitive_integer(b)
        r = list(a)
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= c * y
            _trim(r)
        a, b = b, r
    return a


def _squarefree_parts(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree decomposition of a primitive integer polynomial with
    a positive lead: [(part, multiplicity)], each part primitive with a
    positive lead.

    The gcds are primitive, so by Gauss's lemma every quotient is integral.
    v and w are those of Yun's steps over Q times one common rational factor,
    which leaves every gcd, taken primitive, as it is.
    """
    df = _deriv(f)
    u = _z_gcd(f, df)
    v = _z_exact_div(f, u)
    w = _z_exact_div(df, u)
    out = []
    k = 1
    while _deg(v) > 0:
        dw = _sub(w, _deriv(v))
        h = _z_gcd(v, dw)
        if _deg(h) > 0:
            out.append((h, k))
        v = _z_exact_div(v, h)
        w = _z_exact_div(dw, h)
        k += 1
    return out


# ---------------------------------------------------------------------------
# arithmetic mod m (m prime or prime power); products and quotients
# accumulate in ints and reduce each coefficient once
# ---------------------------------------------------------------------------


def _p_mul(a: list, b: list, m: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim([c % m for c in out])


def _p_add(a: list, b: list, m: int) -> list:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m for i in range(n)]
    return _trim(out)


def _p_sub(a: list, b: list, m: int) -> list:
    return _p_add(a, [-c for c in b], m)


def _p_divmod(a: list, b: list, m: int) -> tuple[list, list]:
    a = list(a)
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv % m
        if c:
            shift = len(a) - len(b)
            q[shift] = c
            for i, y in enumerate(b):
                a[shift + i] -= c * y
        a.pop()
    return _trim(q), _trim([c % m for c in a])


def _p_gcd(a: list, b: list, p: int) -> list:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _q, r = _p_divmod(a, b, p)
        a, b = b, r
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _p_inverse(a: list, g: list, p: int) -> list:
    """a^(-1) mod g over the prime field, for a prime to g."""
    r0, r1 = g, _p_divmod(a, g, p)[1]
    s0, s1 = [], [1]
    while r1:
        q, r = _p_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _p_sub(s0, _p_mul(q, s1, p), p)
    inv = pow(r0[-1], -1, p)
    return [(c * inv) % p for c in s0]


def _p_pow_mod(base: list, e: int, mod: list, p: int) -> list:
    result = [1]
    b = _p_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _p_divmod(_p_mul(result, b, p), mod, p)[1]
        b = _p_divmod(_p_mul(b, b, p), mod, p)[1]
        e >>= 1
    return result


def _distinct_degree(f: list, p: int) -> list[tuple[int, list]]:
    """[(d, g)]: g is the product of the monic irreducible factors of degree d
    of f, a monic squarefree polynomial mod the odd prime p, for each d that
    has some.

    g = gcd(f, x^(p^d) - x) once the factors of lower degree are divided out,
    for d = 1, 2, ...; once deg f < 2(d + 1) what is left is irreducible.
    """
    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= _deg(f):
        d += 1
        h = _p_pow_mod(h, p, f, p)
        g = _p_gcd(f, _p_sub(h, [0, 1], p), p)
        if _deg(g) > 0:
            out.append((d, g))
            f = _p_divmod(f, g, p)[0]
            h = _p_divmod(h, f, p)[1]
    if _deg(f) > 0:
        out.append((_deg(f), f))
    return out


def _frobenius_rows(g: list, p: int) -> list[list]:
    """The rows x^(p i) mod g, i = 0 .. deg g - 1, over the prime field."""
    xp = _p_pow_mod([0, 1], p, g, p)
    rows = [[1]]
    for _i in range(1, _deg(g)):
        rows.append(_p_divmod(_p_mul(rows[-1], xp, p), g, p)[1])
    return rows


def _frobenius(a: list, rows: list[list], p: int) -> list:
    """a^p mod g, a reduced mod g, from g's rows: the sum of a_i x^(p i)."""
    out = [0] * len(rows)
    for c, row in zip(a, rows):
        if c:
            for j, y in enumerate(row):
                out[j] += c * y
    return _trim([c % p for c in out])


def _factor_mod_p(split: list[tuple[int, list]], p: int) -> list[list]:
    """Irreducible monic factors of a monic squarefree polynomial mod an odd
    prime, from its distinct-degree split.

    Equal-degree splitting (Cantor-Zassenhaus) breaks each product g of the
    factors of degree d with gcd(g, r^((p^d - 1)/2) - 1) for random r, which
    is a proper factor with probability about 1/2.  That power is the norm
    r r^p ... r^(p^(d-1)) raised to (p - 1)/2, and each r^(p^k) is one
    application of g's Frobenius rows x^(p i) mod g, made once per g; a
    piece h of g takes the first deg h rows reduced mod h.
    """
    rng = random.Random(p)
    out = []
    for d, g in split:
        pending = [(g, _frobenius_rows(g, p))]
        while pending:
            g, rows = pending.pop()
            if _deg(g) == d:
                out.append(g)
                continue
            norm = t = _trim([rng.randrange(p) for _i in range(_deg(g))])
            for _k in range(d - 1):
                t = _frobenius(t, rows, p)
                norm = _p_divmod(_p_mul(norm, t, p), g, p)[1]
            w = _p_gcd(g, _p_sub(_p_pow_mod(norm, (p - 1) // 2, g, p), [1], p), p)
            if 0 < _deg(w) < _deg(g):
                for h in (w, _p_divmod(g, w, p)[0]):
                    pending.append((h, [_p_divmod(row, h, p)[1] for row in rows[: _deg(h)]]))
            else:
                pending.append((g, rows))
    return out


# ---------------------------------------------------------------------------
# Hensel lifting and recombination
# ---------------------------------------------------------------------------


def _hensel_lift(f: list[int], parts: list[list], p: int, target: int) -> tuple[list[list], int]:
    """Lift the monic factors `parts` of the monic integer f mod p to monic
    factors mod m, the least power of p at or above target.

    Each factor g gets the inverse s = (f / g)^(-1) mod g once, mod p.  While
    f = prod g mod m, e = (f - prod g) / m mod p splits by partial fractions
    as e / f = sum (s e mod g) / g mod p, so adding m (s e mod g) to each g
    makes f = prod g mod m p.
    """
    fp = [c % p for c in f]
    inverses = [_p_inverse(_p_divmod(fp, g, p)[0], g, p) for g in parts]
    lifted = [list(g) for g in parts]
    m = p
    while m < target:
        prod = [1]
        for g in lifted:
            prod = _p_mul(prod, g, m * p)
        e = [c // m for c in _p_sub(f, prod, m * p)]
        for g, s, part in zip(lifted, inverses, parts):
            for i, c in enumerate(_p_divmod(_p_mul(s, e, p), part, p)[1]):
                g[i] += m * c
        m *= p
    return lifted, m


def _symmetric(a: list, m: int) -> list[int]:
    half = m // 2
    return [c - m if c > half else c for c in a]


def _odd_primes():
    n = 3
    while True:
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n
        n += 2


# how many odd primes not dividing the leading coefficient may fail to keep
# an input squarefree before Yun's splitting decides
_SQUAREFREE_TRIES = 5


def _squarefree_primes(zz: list[int], tries: int | None = None) -> list[int]:
    """The first two odd primes p that do not divide lc(zz) and keep zz
    squarefree mod p; [] when none of the first `tries` such primes does.

    One such p shows zz squarefree over Q: a square factor g^2 of zz keeps its
    degree mod p, since lc(g) divides lc(zz).  So the search goes on past
    `tries` once it has found one, and ends for any zz squarefree over Q,
    whose discriminant only finitely many primes divide.
    """
    found = []
    for k, p in enumerate(p for p in _odd_primes() if zz[-1] % p):
        if k == tries and not found:
            break
        df = [(c * i) % p for i, c in enumerate(zz) if i]
        if _deg(_p_gcd([c % p for c in zz], df, p)) == 0:
            found.append(p)
            if len(found) == 2:
                break
    return found


def _degree_sums(split: list[tuple[int, list]]) -> int:
    """The degrees of the products of subsets of the factors that a
    distinct-degree split counts, as the set bits of an int."""
    sums = 1
    for d, g in split:
        for _i in range(_deg(g) // d):
            sums |= sums << d
    return sums


def _factor_squarefree_monic_integer(f: list[int], primes: list[int]) -> list[list[int]]:
    """Irreducible monic integer factors of a monic squarefree integer poly.

    f has degree at least 2 and stays squarefree mod both primes.  A factor of
    f over Z is, mod each prime, a product of some of f's factors there, so
    its degree is a sum of their degrees at both primes (Musser 1975).  f is
    irreducible when either prime leaves it one factor or no degree from 1 to
    deg f - 1 is such a sum at both.  Otherwise the factors mod the prime with
    fewer of them are lifted and recombined: a subset is tried by exact
    division only when its degree is such a sum and the constant term of its
    product, in symmetric form, divides that of the cofactor still left
    (Abbott, Shoup and Zimmermann 2000).
    """
    d = len(f) - 1
    sums = -1  # every bit set
    splits = []
    for p in primes:
        split = _distinct_degree([c % p for c in f], p)
        count = sum(_deg(g) // e for e, g in split)
        if count == 1:
            return [f]
        sums &= _degree_sums(split)
        splits.append((count, p, split))
    if not sums & ((1 << d) - 2):
        return [f]
    _count, p, split = min(splits, key=lambda t: t[0])
    model = _factor_mod_p(split, p)
    model.sort(key=lambda g: (len(g), tuple(g)))
    norm2 = isqrt(sum(c * c for c in f)) + 1
    bound = 2 * (1 << d) * norm2 + 1
    lifted, modulus = _hensel_lift(f, model, p, bound)

    remaining = list(range(len(lifted)))
    result: list[list[int]] = []
    current = f
    size = 1
    while 2 * size <= len(remaining):
        for combo in combinations(remaining, size):
            if not (sums >> sum(len(lifted[i]) - 1 for i in combo)) & 1:
                continue
            const = 1
            for i in combo:
                const = const * lifted[i][0] % modulus
            const = _symmetric([const], modulus)[0]
            if (current[0] % const) if const else current[0]:
                continue
            prod = [1]
            for i in combo:
                prod = _p_mul(prod, lifted[i], modulus)
            cand = _symmetric(prod, modulus)
            quo, rem = _z_divmod(current, cand)
            if not rem:
                result.append(cand)
                current = quo
                remaining = [i for i in remaining if i not in combo]
                break
        else:
            size += 1
    if len(current) > 1:
        result.append(current)
    result.sort(key=lambda g: (len(g), tuple(g)))
    return result


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------


def univariate_factor(coeffs: Sequence) -> list[tuple[tuple[Fraction, ...], int]]:
    """Monic irreducible factors with multiplicities, constant-term first.

    The constant content and leading coefficient are dropped; a constant
    input yields no factors.  Rationals appear only here: the input is read
    once into a primitive integer polynomial, and the factors found over Z
    are made monic on the way out.
    """
    f = _trim([Fraction(c) for c in coeffs])
    if _deg(f) < 1:
        return []
    shift = next(i for i, c in enumerate(f) if c)
    factors = [([0, 1], shift)] if shift else []
    zz = _primitive_integer(f[shift:])
    if _deg(zz) == 1:
        factors.append((zz, 1))
    elif _deg(zz) > 1:
        primes = _squarefree_primes(zz, _SQUAREFREE_TRIES)
        for part, mult in [(zz, 1)] if primes else _squarefree_parts(zz):
            factors += [(irr, mult) for irr in _factor_part(part, primes)]
    out = [(tuple(Fraction(c, g[-1]) for c in g), mult) for g, mult in factors]
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def _factor_part(zz: list[int], primes: list[int]) -> list[list[int]]:
    """Primitive irreducible factors, with positive leads, of a primitive
    squarefree integer polynomial, factored mod primes from
    `_squarefree_primes` (searched here when [])."""
    if _deg(zz) == 1:
        return [zz]
    # remove the leading coefficient c by substitution: the factors of
    # c^(d-1) f(x/c) in y = c x are monic with integer coefficients; mod a
    # prime not dividing c the substitution keeps them squarefree
    lead = zz[-1]
    d = len(zz) - 1
    monic = [c * lead ** (d - 1 - i) for i, c in enumerate(zz[:-1])] + [1]
    factors = _factor_squarefree_monic_integer(monic, primes or _squarefree_primes(zz))
    return [_primitive_integer([c * lead**i for i, c in enumerate(fac)]) for fac in factors]
