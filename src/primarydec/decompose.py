"""Associated primes and primary decomposition of submodules of free modules.

The minimal primes of an ideal whose reduced basis is monomials are the
(x_S), S a minimal set of variables that meets every generator's support
(Miller-Sturmfels 2005, ch. 1), found by branching on a support that S
misses and recorded with no run.  Those of any other ideal are found by
splitting along a maximal independent set u of variables: after saturating
by the product of leading coefficients (a pass made only when u is
nonempty; with u = () they are all rational) the ideal J is zero
dimensional over K = Q(u).  J is prime when its quotient has
dimension 1 over K, or when some linear form in the dependent variables has
a rational, irreducible minimal polynomial of degree equal to that
dimension; a form whose rational minimal polynomial factors splits J.
Coordinate shears, at most `_SHEAR_BUDGET` per `min_ass` call, are a
fallback for what no form settles.  A form's minimal polynomial is the
first linear dependence among the normal forms of its powers (FGLM), found
by fraction-free elimination on the basis's integer terms, against J's
ring-order basis when u = (), else against its basis in the block order
u > x_D, whose u-free elements are a basis of J cap Q[x_D]; the search stops
after dim + 1 powers.  That finds it exactly when it is rational, since Q is
algebraically closed in Q(u).  Each distinct polynomial is factored once per
`min_ass` call, in a memo that the call creates and drops.  With u = (), when
every variable's minimal polynomial splits into linear factors over Q and the
grid of their roots has at most dim points, the primes are the maximal ideals
of the grid points where J vanishes, with no split (`_rational_points`); each
(x_1 - a_1, ..., x_n - a_n) is its own reduced basis, recorded with no run.
The splits return candidate primes, which may repeat or contain one another;
`min_ass` alone keeps the inclusion-minimal ones and sorts them, once, by codim
and then by `rendered_generators`, the text the CLI prints.  Components inherit
that order: the hull's primes, all of codim c, then each higher codim's.
The module-level decomposition peels one primary component per associated
prime.  Ext serves for two things only: the twice-iterated Ext kernel gives
the input's equidimensional hull N1 (none is computed when the Groebner basis
shows the module unmixed: zero dimensional, or an ideal of height c with c
generators), and the Ext annihilators give the associated primes above
codim c.  The associated primes that localization needs are found once per
module: the minimal primes of the annihilator for the unmixed hull, the
codim-b minimal primes of each `ass_prim_codim(A, b)` for the input.  Each
component comes from ideal-power witnesses, whose hulls need no Ext: P is
the only minimal prime of F/N, N = P^m F + A, so hull(N) is N's P-primary
component, its contraction from Q(u)[x_D], which is N : h^infinity for h the
product of N's K[u]-lead coefficients (Gianni-Trager-Zacharias 1988,
Prop. 3.7; Rutman 1992 for modules), u an independent set of P.
Localizing at P is one saturation, by the product of one separator per
associated prime outside P.  The witness sum A + P^m F is formed known part
first, as P^m F + A with P^m F reduced, so its run starts from that basis
and reduces only A.  When P's reduced basis is {x_i - a_i : i in S}, P^m F's
is the products (x - a)^e e_c, |e| = m, recorded with no run
(`groebner.linear_power`).  The associated primes pass through to
`localize_module` alone.  At a minimal prime (every prime of the hull, and
each higher-codim prime that contains no lower one) the localization is
P-primary, of P's dimension, which an associated prime strictly inside P
would exceed; there the witness test saturates it by P no further.
The isolated components intersect to the hull, so only the higher-codim ones
are intersected in.  No component is redundant: were M the intersection of
the components other than Q_j, F/M would embed in the sum of their quotients,
whose associated primes exclude P_j, yet P_j is an associated prime of F/M.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import add

from .groebner import (
    GroebnerBasis,
    _support_masks,
    annihilator,
    buchberger,
    canonical,
    codim,
    independent_sets,
    intersect,
    is_sub,
    is_unit_ideal,
    krull_dim,
    lead_coefficients,
    linear_basis,
    linear_power,
    module_equal,
    monomial_basis,
    saturate,
)
from .homology import ass_prim_codim, equidim_hull
from .polyring import (
    FreeElement,
    MonomialOrder,
    RingContext,
    RingError,
    Submodule,
    _collect,
    _Value,
    from_terms,
    full_module,
    ideal,
    ideal_generators,
    poly_from_terms,
    rekey,
    render_polynomial,
    substitute,
)
from .unifactor import univariate_factor


class DecompositionError(RuntimeError):
    """Raised when no certified decomposition could be produced."""


class _CertificationFailure(Exception):
    """Internal signal: the chosen independent set did not certify."""


_SHEAR_LAMBDAS = (1, -1, 2, -2, 3, -3, 5, -5)
# coordinate shears one min_ass call may try, over its whole recursion
_SHEAR_BUDGET = 16
_FORM_SCALES = (0, 1, 2, 3, 5)


def rendered_generators(A: Submodule) -> list:
    """A's canonical generators as text: a string each for an ideal, a list
    of strings each for a module.  Also the sort key of primes."""
    gens = canonical(A).generators
    if A.ambient_rank == 1:
        return [render_polynomial(g) for g in gens]
    return [[render_polynomial(p) for p in g.components] for g in gens]


def _module_sum(A: Submodule, B: Submodule) -> Submodule:
    return Submodule(A.ring, A.ambient_rank, list(A.generators) + list(B.generators))


def _ideal_times_module(P: Submodule, X: Submodule) -> Submodule:
    """P X, each distinct product once."""
    gens = dict.fromkeys(v.scale(f) for f in ideal_generators(P) for v in X.generators)
    return Submodule(X.ring, X.ambient_rank, gens)


def _minimalize(primes) -> list[Submodule]:
    """The inclusion-minimal primes among `primes`, sorted by (codim, rendering).

    Distinct primes of equal height are never nested, because a strict
    inclusion of primes raises the height; so only a prime of strictly lower
    codim is tested for containment.
    """
    heights: dict[Submodule, int] = {}
    for P in primes:
        Pc = canonical(P)
        if Pc not in heights:
            heights[Pc] = codim(Pc)
    kept = [
        P
        for P, h in heights.items()
        if not any(hq < h and is_sub(Q, P) for Q, hq in heights.items())
    ]
    kept.sort(key=lambda P: (heights[P], rendered_generators(P)))
    return kept


# ---------------------------------------------------------------------------
# minimal associated primes
# ---------------------------------------------------------------------------


def _linear_form(ring: RingContext, D: tuple[int, ...], d: int, c: int) -> FreeElement:
    """x_d + sum_k c^k x_(others[k]), others the rest of D, in one construction."""
    unit = [tuple(int(i == j) for j in range(ring.n)) for i in range(ring.n)]
    others = (unit[i] for i in D if i != d)
    return poly_from_terms(ring, [(unit[d], 1), *((e, c**k) for k, e in enumerate(others, 1))])


def _poly_of(l: FreeElement, coeffs) -> FreeElement:
    """coeffs[0] + coeffs[1] l + coeffs[2] l^2 + ..., in one construction: from
    the terms x^(k e) when l is one monomial x^e, else from one sum of powers."""
    if len(l.terms) == 1 and l.terms[0][3] == l.den:
        terms = [(tuple(k * i for i in l.terms[0][2]), a) for k, a in enumerate(coeffs)]
        return poly_from_terms(l.ring, terms)
    powers = [l.ring.one()]
    for _a in coeffs[1:]:
        powers.append(powers[-1] * l)
    coeffs = [Fraction(a, p.den) for a, p in zip(coeffs, powers)]
    den = lcm(*(a.denominator for a in coeffs))
    pieces = [(p.terms, a.numerator * (den // a.denominator), ()) for a, p in zip(coeffs, powers)]
    return from_terms(l.ring, 1, _collect(pieces, l.ring.order), den)


def _standard_count(leads) -> int:
    """The number of monomials outside the monomial ideal the exponent
    vectors leads generate, which must be zero dimensional.  Standard
    monomials are closed under division, so a walk from 1 that multiplies m
    by x_i, i at or after m's last variable, meets each of them once and goes
    on from none of the others."""
    n = len(leads[0])
    if not all(any(m[i] and sum(m) == m[i] for m in leads) for i in range(n)):
        raise _CertificationFailure("ideal is not zero dimensional over Q(u)")
    count = 0
    stack = [((0,) * n, 0)]
    while stack:
        m, last = stack.pop()
        if any(all(a <= b for a, b in zip(lead, m)) for lead in leads):
            continue
        count += 1
        stack.extend((m[:i] + (m[i] + 1,) + m[i + 1 :], i) for i in range(last, n))
    return count


def _normal_form_minpoly(G: GroebnerBasis, l: FreeElement, dim: int):
    """Monic generator of J cap Q[l], coefficients low to high, or None when
    it has degree above dim or J cap Q[l] = 0.  G is J's reduced basis in
    the ring order, or for u nonempty in an order ranking u first, whose
    u-free elements are a basis of J cap Q[x_D]: the normal forms of the
    powers of l, a form in x_D, then stay u-free.

    It is the first linear dependence among NF(1), NF(l), NF(l^2), ...
    (Faugere-Gianni-Lazard-Mora 1993), found on G's integer terms as each
    r = S * NF(l^k), S an integer, arrives: G reduces, fraction-free, the
    product of l's terms, keyed in G's order once, with the last r.  A row
    is r's terms by key and, at keys -1 - j below them, the combination of
    powers of l it stands for; it is reduced by cross-multiplication and
    divided by its content (Bareiss 1968), so only the dependence found
    becomes Fractions.  The search stops after dim + 1 powers, as J cap
    Q[l] may be 0.
    """
    L = rekey(G.order, ((comp, exps, c) for _k, comp, exps, c in l.terms))
    # NF(1) = 1, J being proper; 1 is the least monomial, so every key is >= 0
    r, S, rows = ((0, 0, (0,) * l.ring.n, 1),), 1, []
    for k in range(dim + 1):
        if k:
            s, r = G._reduce_terms(
                [(a + b, c, tuple(map(add, e, f)), x * y) for a, c, e, x in r for b, _, f, y in L]
            )
            g = gcd(s * S * l.den, *(t[3] for t in r))
            r, S = tuple((a, comp, e, x // g) for a, comp, e, x in r), s * S * l.den // g
        w = {a: x for a, _comp, _e, x in r} | {-1 - k: S}
        for pivot, row in rows:
            f = w.get(pivot)
            if f:
                g = gcd(f, row[pivot])
                p, f = row[pivot] // g, f // g
                if p != 1:
                    w = {m: p * x for m, x in w.items()}
                for m, x in row.items():
                    w[m] = w.get(m, 0) - f * x
        w = {m: x for m, x in w.items() if x}
        pivot = max(w)
        if pivot < 0:
            return tuple(Fraction(w.get(-1 - j, 0), w[-1 - k]) for j in range(k + 1))
        g = gcd(*w.values())
        rows.append((pivot, {m: x // g for m, x in w.items()} if g != 1 else w))
    return None


class _Search(_Value):
    """What one min_ass call shares over its recursion: the coordinate shears
    it has left, the shear multipliers in the order its seed gives, and each
    factorization made, by coefficient tuple.  Groebner bases and the block
    orders they use are kept by the ring (groebner._GroebnerCache).  It
    changes, as shears counts down, so it has no hash."""

    __slots__ = _fields = ("shears", "schedule", "factored")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, shears: int, schedule: tuple = _SHEAR_LAMBDAS, factored=None):
        self._fill(shears, schedule, {} if factored is None else factored)

    def factor(self, coeffs: tuple) -> list:
        hit = self.factored.get(coeffs)
        if hit is None:
            hit = self.factored[coeffs] = univariate_factor(coeffs)
        return hit


def _rational_points(G: GroebnerBasis, dim: int, search: _Search, minpolys: dict):
    """The primes of J, zero dimensional over Q with reduced basis G and
    dim_Q Q[x]/J = dim, when its points are rational; None otherwise.

    The minimal polynomial p_d of each x_d in turn (kept in minpolys, by
    form) is factored, up to the first with a factor of degree above 1.
    When all split into linear factors and the grid R_1 x ... x R_n of their
    distinct roots has at most dim points, the primes are the maximal ideals
    (x_1 - a_1, ..., x_n - a_n) of the grid points a where every generator
    vanishes.  p_d(x_d) lies in J, so each point of V(J) over C lies in the
    grid; the Q-primes of J are the Galois orbits of V(J), a rational point
    being its own orbit; and J lies in m_a exactly when every generator
    vanishes at a.  |V(J)| <= dim, and the guard bounds the evaluations by
    dim times the number of generators.  They are fraction-free: with the
    roots over one denominator q, a generator of degree k is evaluated as
    the sum of c q^(k - |e|) n^e over its integer terms c x^e.
    """
    ring = G.ring
    D = tuple(range(ring.n))
    lines = []
    for d in D:
        l = _linear_form(ring, D, d, 0)
        minpolys[l] = coeffs = _normal_form_minpoly(G, l, dim)
        factors = [fc for fc, _mult in search.factor(coeffs)]
        if any(len(fc) > 2 for fc in factors):
            return None
        lines.append([(l, fc) for fc in factors])
    if prod(map(len, lines)) > dim:
        return None
    # the root of x_d + fc[0] is -fc[0]
    q = lcm(*(fc[0].denominator for line in lines for _l, fc in line))
    gens = [(max(sum(e) for _k, _c, e, _x in g.terms), g.terms) for g in G.generators]
    F, out = full_module(ring, 1), []
    for point in product(*lines):
        n = [int(-fc[0] * q) for _l, fc in point]
        if not any(
            sum(x * q ** (k - sum(e)) * prod(map(pow, n, e)) for _k, _c, e, x in terms)
            for k, terms in gens
        ):
            out.append(linear_power([_poly_of(l, fc) for l, fc in point], F))
    return out


def _zero_dim_primes(J: Submodule, u: tuple[int, ...], search: _Search):
    """Candidate primes of J (see `_min_ass_rec`) when J is zero dimensional
    over K = Q(u).

    dim_K K[x_D]/J is counted first, as the number of standard monomials of
    J's basis in the ring order when u = (), else in the block order x_D > u
    (the basis `_gtz_split` made, when J is its ideal).  J is prime when that
    dimension is 1, for then the quotient is K itself.  With u = (), J's
    points are read off the grid of the variables' rational roots when it
    has at most dim_Q points (`_rational_points`, which keeps the minimal
    polynomials it finds for the forms l = x_d below).  Otherwise each distinct
    linear form l = x_d + sum_k c^(k+1) x_{others[k]}, for c in _FORM_SCALES
    and d in D, is tested once through its minimal polynomial p over K, which
    `_normal_form_minpoly` finds, against J's basis in the ring order or in
    the block order u > x_D, exactly when p is rational; none is when that
    basis has no u-free element, J cap Q[x_D] being 0.  A rational p(l) lies
    in J, which is saturated, so p is the least dependence, of degree at most
    dim_K; a dependence m of that degree is a multiple of p, and its monic
    factors over K are rational, Q being algebraically closed in Q(u), so
    p = m.  A rational p that factors or has a repeated factor splits J
    along its factors f, into J + (f(l)); each distinct p is factored once
    per `min_ass` call.  A rational, irreducible p of degree dim_K makes the
    quotient the field K[t]/(p); J, saturated by the lead coefficients, is
    the contraction of that field's kernel and so prime.  Raises
    _CertificationFailure otherwise.
    """
    ring = J.ring
    D = tuple(i for i in range(ring.n) if i not in set(u))
    G = buchberger(J, MonomialOrder("block", blocks=(D,))) if u else buchberger(J)
    dim = _standard_count([tuple(lead[i] for i in D) for _comp, lead in G.leading_terms()])
    if dim == 1:
        return [canonical(J)]
    minpolys: dict = {}
    if u:
        G = buchberger(J, MonomialOrder("block", blocks=(u,)))
        if all(any(lead[i] for i in u) for _comp, lead in G.leading_terms()):
            raise _CertificationFailure("J cap Q[x_D] = 0: no form has a rational p")
    elif (points := _rational_points(G, dim, search, minpolys)) is not None:
        return points
    # each distinct form once: with one variable l = x_d for every c, and for
    # c = 1 l is the sum of x_D for every d
    for c in _FORM_SCALES if len(D) > 1 else (0,):
        for d in D[:1] if c == 1 else D:
            l = _linear_form(ring, D, d, c)
            coeffs = minpolys[l] if l in minpolys else _normal_form_minpoly(G, l, dim)
            if coeffs is None:
                continue
            factors = search.factor(coeffs)
            if len(factors) > 1 or factors[0][1] > 1:
                out = []
                for fc, _mult in factors:
                    split = canonical(ideal(ring, [*J.generators, _poly_of(l, fc)]))
                    out.extend(_min_ass_rec(split, search))
                return out
            if len(coeffs) - 1 == dim:
                return [canonical(J)]
    raise _CertificationFailure("no linear form certifies or splits the ideal")


def _gtz_split(I: Submodule, u: tuple[int, ...], search: _Search):
    """Candidate primes of the canonical ideal I, split along the independent
    set u.  With u = () every lead coefficient is rational: nothing is
    saturated, and I goes to `_zero_dim_primes` as it is.  Otherwise h is
    the product of the lead coefficients over Q[u] of I's basis in the block
    order x_D > u (`lead_coefficients`), and J = I : h^infinity is proper:
    past the check no lead of that basis is D-free, so I cap Q[u], which
    those would generate, is 0, and no power of h, a product of nonzero
    elements of Q[u], lies in I.  With nothing to saturate J = I, which
    `_min_ass_rec` has found proper."""
    if not u:
        return _zero_dim_primes(I, u, search)
    ring = I.ring
    D = tuple(i for i in range(ring.n) if i not in set(u))
    G = buchberger(I, MonomialOrder("block", blocks=(D,)))
    if not all(any(lead[i] for i in D) for _comp, lead in G.leading_terms()):
        raise _CertificationFailure("independent set meets the ideal")
    coeffs = lead_coefficients(I, D)
    h = prod(coeffs, start=ring.one())
    J = saturate(I, ideal(ring, [h])) if coeffs else I
    primes = _zero_dim_primes(J, u, search)
    if J != I:
        primes.extend(_min_ass_rec(ideal(ring, [*I.generators, h]), search))
    return primes


def _candidate_independent_sets(I: Submodule):
    """The independent sets read off the leading terms, then every other set
    of their size; `_gtz_split` rejects one that meets the ideal."""
    lead_based = independent_sets(I)
    yield from lead_based
    d = krull_dim(I)
    if d > 0:
        yield from (u for u in combinations(range(I.ring.n), d) if u not in lead_based)


def _shear_pairs(ring: RingContext, D: tuple[int, ...]):
    yield from ((i, j) for i in D for j in D if i != j)
    yield from ((i, j) for i in D for j in range(ring.n) if j not in D)


def _apply_shear(I: Submodule, i: int, j: int, lam: int) -> Submodule:
    ring = I.ring
    image = ring.variable(i) + ring.variable(j) * lam
    return canonical(
        ideal(ring, [substitute(p, {i: image}) for p in ideal_generators(I)])
    )


def _min_ass_rec(I: Submodule, search: _Search) -> list[Submodule]:
    """Candidate primes of I, within what search has left for the whole call.

    Each candidate is a canonical prime containing I, and every minimal prime
    of I is among them; they may repeat or contain one another.
    """
    Ic = canonical(I)
    if is_unit_ideal(Ic):
        return []
    if not Ic.generators:
        return [Ic]
    for u in _candidate_independent_sets(Ic):
        try:
            return _gtz_split(Ic, u, search)
        except _CertificationFailure:
            continue
    first_sets = independent_sets(Ic)
    u0 = first_sets[0] if first_sets else ()
    D0 = tuple(i for i in range(Ic.ring.n) if i not in set(u0))
    for (i, j), lam in product(_shear_pairs(Ic.ring, D0), search.schedule):
        if not search.shears:
            break
        search.shears -= 1
        try:
            # a sheared ideal makes no shears of its own, so the budget goes to
            # single shears in schedule order, not down one chain of them
            primes = _min_ass_rec(_apply_shear(Ic, i, j, lam), search._replace(shears=0))
        except DecompositionError:
            continue
        return [_apply_shear(P, i, j, -lam) for P in primes]
    raise DecompositionError(
        f"cannot certify minimal primes after {_SHEAR_BUDGET - search.shears} coordinate "
        "shears; the ideal appears to need factorization over a function field, "
        "which rational coefficients do not reach"
    )


def _minimal_covers(supports) -> set:
    """The minimal variable sets, as bit masks, that meet every mask in
    supports: each branch adds a variable of the first support it misses, so
    every minimal cover is reached; none when a support is empty."""
    covers = set()
    stack = [0]
    while stack:
        S = stack.pop()
        missed = next((m for m in supports if not m & S), None)
        if missed is None:
            covers.add(S)
        else:
            stack.extend(S | 1 << i for i in range(missed.bit_length()) if missed >> i & 1)
    return {S for S in covers if not any(T != S and T & S == T for T in covers)}


def min_ass(I: Submodule, seed: int = 0) -> list[Submodule]:
    """Minimal associated primes of an ideal, canonical and sorted.  When I's
    reduced basis is monomials, they are the (x_S) for the minimal sets S
    that meet every generator's support, each recorded with no run."""
    if I.ambient_rank != 1:
        raise ValueError("minimal primes are computed for ideals")
    ring, G = I.ring, buchberger(I)
    if all(len(g.terms) == 1 for g in G.generators):
        unit = [tuple(int(i == j) for j in range(ring.n)) for i in range(ring.n)]
        return _minimalize([
            monomial_basis(ring, 1, [(0, unit[i]) for i in range(ring.n) if S >> i & 1])
            for S in _minimal_covers(_support_masks(G.leading_terms(), 0))
        ])
    rot = seed % len(_SHEAR_LAMBDAS)
    search = _Search(_SHEAR_BUDGET, _SHEAR_LAMBDAS[rot:] + _SHEAR_LAMBDAS[:rot])
    return _minimalize(_min_ass_rec(I, search))


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


def codim_associated_primes(A: Submodule, b: int, seed: int = 0) -> list[Submodule]:
    """Associated primes of F/A of codim b: the codim-b minimal primes of
    ass_prim_codim(A, b) (Eisenbud-Huneke-Vasconcelos)."""
    return [P for P in min_ass(ass_prim_codim(A, b), seed) if codim(P) == b]


def _associated_primes(A: Submodule, seed: int) -> list[Submodule]:
    """Associated primes of F/A, A canonical, by codim."""
    primes = []
    for b in range(codim(A), A.ring.n + 1):
        primes.extend(codim_associated_primes(A, b, seed))
    return primes


def _separator(P: Submodule, GJ):
    """The first generator of P outside the ideal with reduced basis GJ, or
    None when P lies inside that ideal."""
    return next((f for f in ideal_generators(P) if not GJ.contains(f)), None)


def localize_module(
    A: Submodule, J: Submodule, seed: int = 0, *, primes: list | None = None
) -> Submodule:
    """Contraction of A under localization at the prime ideal J.

    Keeps exactly the primary components whose prime is contained in J.  Each
    associated prime P not inside J has a separator, the first generator of P
    not in J.  One saturation by the product h of the distinct separators
    removes the components at those primes and no other: h lies in each of
    them, and outside J, so outside every prime inside J.  It equals the
    saturations by the separators one after another, since
    A : (fg)^inf = (A : f^inf) : g^inf.
    `primes` lists the associated primes of F/A when the caller has them;
    otherwise they are read off the Ext modules (`_associated_primes`).
    """
    ring = A.ring
    if J.ring != ring:
        raise RingError(
            "cannot localize: the ideal's ring differs from the module's in its "
            + ("order" if J.ring.variables == ring.variables else "variables")
        )
    if J.ambient_rank != 1:
        raise ValueError("localization expects a prime ideal")
    Ac = canonical(A)
    GJ = buchberger(J)
    separators = dict.fromkeys(
        f
        for P in (_associated_primes(Ac, seed) if primes is None else primes)
        if (f := _separator(P, GJ)) is not None
    )
    if not separators:
        return Ac
    return saturate(Ac, ideal(ring, [prod(separators, start=ring.one())]))


# ---------------------------------------------------------------------------
# primary components
# ---------------------------------------------------------------------------


class Component(_Value):
    """One primary component with its prime and the witness exponent used;
    hull_trace holds the (exponent, hull) pairs tried."""

    __slots__ = _fields = ("module", "prime", "codim", "embedded", "witness_exponent", "hull_trace")

    def __init__(self, module, prime, codim, embedded, witness_exponent, hull_trace):
        self._fill(module, prime, codim, embedded, witness_exponent, hull_trace)


class DecompositionResult(_Value):
    __slots__ = _fields = ("components",)

    def __init__(self, components: tuple[Component, ...]):
        self._fill(components)


def _witness_hull(N: Submodule, u: tuple[int, ...]) -> Submodule:
    """hull(N), N canonical, when P is the one minimal prime of F/N and u an
    independent set of P: the contraction N K(u)[x_D]^s cap F, D the other
    variables, as F/N's embedded primes, of lower dimension, all meet K[u].
    It is N : h^inf for h the product of `lead_coefficients(N, D)` (GTZ
    1988, Prop. 3.7; Rutman 1992).  At a maximal P, u = () and N is
    P-primary already."""
    if not u:
        return N
    D = tuple(i for i in range(N.ring.n) if i not in u)
    coeffs = lead_coefficients(N, D)
    return saturate(N, ideal(N.ring, [prod(coeffs, start=N.ring.one())])) if coeffs else N


def primary_component(
    A: Submodule,
    P: Submodule,
    bound: int = 50,
    seed: int = 0,
    *,
    primes: list | None = None,
) -> tuple[Submodule, int, tuple[tuple[int, Submodule], ...]]:
    """P-primary component of A with the least power of P that witnesses it.

    Returns (component, exponent, trace of (exponent, hull) attempts).
    `primes`, the associated primes of F/A if known, only passes through to
    `localize_module`.  A hull Q = hull(A + P^m F) witnesses when AP2 cap Q
    lies in AP, where AP is the localization at P and AP2 = AP : P^inf.
    AP is proper, so P contains ann(F/A), and F/N, N = A + P^m F, is
    supported on V(P) alone: P is its one minimal prime, so hull(N) is a
    contraction along u = `independent_sets(P)[0]` (`_witness_hull`), and
    no Ext module is computed.
    F/AP has the associated primes of F/A inside P, and one strictly inside
    has a larger dimension, so codim(AP) = codim(P) exactly when P is minimal
    (EHV): AP is P-primary, AP2 is F and no saturation by P is computed.
    P^m F is P times the reduced P^(m-1) F, so generators do not multiply,
    and is written down with no run when P's basis is {x_i - a_i};
    A + P^m F puts P^m F first, and its run starts from that basis.
    """
    AP = localize_module(A, P, seed, primes=primes)
    if buchberger(AP).is_full():
        raise DecompositionError(
            f"({', '.join(rendered_generators(P))}) contains no associated prime of the module"
        )
    B = full_module(A.ring, A.ambient_rank)
    AP2 = B if codim(AP) == codim(P) else saturate(AP, P)
    u = independent_sets(P)[0]
    lins = linear_basis(P)
    T = B
    trace = []
    for m in range(1, bound + 1):
        T = canonical(_ideal_times_module(P, T)) if lins is None else linear_power(lins, T)
        Q = _witness_hull(canonical(_module_sum(T, A)), u)
        trace.append((m, Q))
        if is_sub(intersect(AP2, Q), AP):
            return Q, m, tuple(trace)
    raise DecompositionError(
        f"no witness exponent up to {bound} isolates the component at "
        f"({', '.join(rendered_generators(P))})"
    )


def primary_decomposition(
    M: Submodule, bound: int = 50, seed: int = 0
) -> DecompositionResult:
    """Irredundant primary decomposition of a proper submodule: one component
    per associated prime (see the module docstring)."""
    Mc = canonical(M)
    if buchberger(Mc).is_full():
        return DecompositionResult(())
    N1 = equidim_hull(Mc)
    # N1 is unmixed, so its associated primes are the minimal primes of its
    # annihilator, and no Ext module above codim(N1) needs computing.
    hull_primes = min_ass(annihilator(N1), seed)
    if not hull_primes:
        raise DecompositionError("no minimal primes found for a proper module")
    # the codim-c associated primes of Mc, c = codim(Mc), are the hull's, and
    # its isolated components intersect to N1 itself
    c = codim(Mc)
    comps = []
    for P in hull_primes:
        Q, m, trace = primary_component(N1, P, bound, seed, primes=hull_primes)
        comps.append(Component(Q, P, c, False, m, trace))
    if not module_equal(N1, Mc):
        higher = [
            (P, b)
            for b in range(c + 1, Mc.ring.n + 1)
            for P in codim_associated_primes(Mc, b, seed)
        ]
        ass = hull_primes + [P for P, _b in higher]
        N = N1
        for P, b in higher:
            Q, m, trace = primary_component(Mc, P, bound, seed, primes=ass)
            # embedded when P contains an associated prime of lower codim
            embedded = any(C.codim < b and is_sub(C.prime, P) for C in comps)
            comps.append(Component(Q, P, b, embedded, m, trace))
            N = intersect(N, Q)
        if not module_equal(N, Mc):
            raise DecompositionError(
                "computed components do not intersect back to the input"
            )
    return DecompositionResult(tuple(comps))
