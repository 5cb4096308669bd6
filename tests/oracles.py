"""Reference code for the tests, written without the decomposition pipeline.

The monomial oracle decomposes monomial ideals by purely combinatorial
splitting, with no Groebner machinery, so it can confirm hulls and minimal
primes computed by the main pipeline.  The membership oracle solves a dense
linear system over the rationals for the same reason.  `quotient_by_ideal`
computes A : J from one `modulo_kernel` per generator of J, the reference
that saturation is compared against as a fixed point.  `validation_reference`
is the validator's report with its irredundancy test run at every component,
each all-but-one intersection computed on its own.  `minpoly_data` reads the
minimal polynomial of a variable over Q(u) off a block-order basis that
eliminates the other dependent variables, the reference for the normal-form
minimal polynomials of the minimal-prime step; `fraction_minpoly` finds
those by elimination over Q, in `Fraction` rows, on `FreeElement` normal
forms, the reference for the fraction-free ones.  `written_out_key` writes a
term's order key out as a digit tuple and `packed_key` packs it into the int
that `MonomialOrder.term_key` returns.  `lead_coefficient_product` and
`split_lead_coefficient_product` are the two readers of lead coefficients
over Q(u) that the validator and the GTZ split each once kept, the
references for `groebner.lead_coefficients`.

Tests import it as `from oracles import ...`; pytest puts this directory on
sys.path.  It uses only names that `primarydec` exports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from primarydec import (
    DEGREVLEX,
    FreeElement,
    MonomialOrder,
    RingContext,
    Submodule,
    buchberger,
    canonical,
    full_module,
    ideal,
    ideal_generators,
    intersect_many,
    module_equal,
    modulo_kernel,
    unit_vector,
    validate_decomposition,
)

Monomial = tuple  # exponent vector, one slot per ring variable


def written_out_key(order: MonomialOrder, comp: int, exps: Monomial) -> tuple:
    """A term's order key as a digit tuple, compared lexicographically: the
    negated component before (position over term) or after (term over
    position) the monomial's digits, then the (weighted) degree.  The
    monomial's digits are its exponents under lex; its degree and negated
    exponents in reverse under degrevlex; and under a block order, for each
    block and then for the variables in no block, their degree followed by
    their negated exponents in reverse."""
    weights = order.weights or (1,) * len(exps)
    degree = sum(w * e for w, e in zip(weights, exps))
    if order.kind == "lex":
        mono = list(exps)
    elif order.kind == "block":
        used = {i for grp in order.blocks for i in grp}
        groups = [[exps[i] for i in grp] for grp in order.blocks]
        groups.append([e for i, e in enumerate(exps) if i not in used])
        mono = []
        for sub in groups:
            mono.append(sum(sub))
            mono.extend(-e for e in reversed(sub))
    else:
        mono = [degree, *(-e for e in reversed(exps))]
    if order.module_extension == "position-over-term":
        return (-comp, *mono, degree)
    return (*mono, -comp, degree)


def packed_key(digits: Sequence[int]) -> int:
    """The digits as one int, 64 bits a digit, the first most significant."""
    return sum(d << (64 * (len(digits) - 1 - j)) for j, d in enumerate(digits))


# ---------------------------------------------------------------------------
# monomial primary decomposition oracle
# ---------------------------------------------------------------------------


def _monomial_exps(I: Submodule) -> list[Monomial]:
    if I.ambient_rank != 1:
        raise ValueError("the monomial oracle works on ideals")
    out = []
    for g in I.generators:
        p = g.components[0]
        if p.is_zero():
            continue
        if len(p.terms) != 1:
            raise ValueError("generators must be monomials")
        out.append(p.terms[0][2])
    return out


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimalize_monomials(gens: Sequence[Monomial]) -> tuple[Monomial, ...]:
    uniq = sorted(set(gens))
    kept = [
        m for m in uniq if not any(o != m and _divides(o, m) for o in uniq)
    ]
    return tuple(kept)


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _intersect_monomial(A: Sequence[Monomial], B: Sequence[Monomial]):
    return _minimalize_monomials([_lcm(a, b) for a in A for b in B])


def _contains_monomial(A: Sequence[Monomial], B: Sequence[Monomial]) -> bool:
    """Whether the ideal generated by A contains the one generated by B."""
    return all(any(_divides(a, b) for a in A) for b in B)


def _split_irreducible(gens: tuple[Monomial, ...]) -> list[tuple[Monomial, ...]]:
    for g in gens:
        support = [i for i, e in enumerate(g) if e]
        if len(support) < 2:
            continue
        i = support[0]
        rest = [m for m in gens if m != g]
        p = tuple(e if pos == i else 0 for pos, e in enumerate(g))
        q = tuple(0 if pos == i else e for pos, e in enumerate(g))
        left = _minimalize_monomials(rest + [p])
        right = _minimalize_monomials(rest + [q])
        return _split_irreducible(left) + _split_irreducible(right)
    return [gens]


def monomial_primdec_oracle(I: Submodule):
    """Primary decomposition of a monomial ideal by coprime-part splitting.

    Returns a list of (prime variable indices, component generators) sorted
    by codimension, with an irredundant component list.
    """
    gens = _minimalize_monomials(_monomial_exps(I))
    if not gens:
        return [((), ())]
    if any(all(e == 0 for e in m) for m in gens):
        return []
    by_prime: dict[tuple[int, ...], tuple[Monomial, ...]] = {}
    for irr in _split_irreducible(gens):
        prime = tuple(sorted({i for m in irr for i, e in enumerate(m) if e}))
        cur = by_prime.get(prime)
        by_prime[prime] = irr if cur is None else _intersect_monomial(cur, irr)
    comps = sorted(by_prime.items(), key=lambda t: (len(t[0]), t[0]))
    idx = 0
    while idx < len(comps) and len(comps) > 1:
        rest = None
        for j, (_p, ideal_j) in enumerate(comps):
            if j == idx:
                continue
            rest = ideal_j if rest is None else _intersect_monomial(rest, ideal_j)
        if _contains_monomial(comps[idx][1], rest):
            comps.pop(idx)
        else:
            idx += 1
    return comps


def _monomial_ideal(ring: RingContext, gens: Sequence[Monomial]) -> Submodule:
    return ideal(ring, [ring.monomial(m) for m in gens])


def monomial_hull_oracle(I: Submodule) -> Submodule:
    """Intersection of the maximal-dimension components of a monomial ideal."""
    comps = monomial_primdec_oracle(I)
    if not comps:
        return canonical(ideal(I.ring, [I.ring.one()]))
    low = min(len(p) for p, _g in comps)
    acc = None
    for p, g in comps:
        if len(p) != low:
            continue
        acc = g if acc is None else _intersect_monomial(acc, g)
    return canonical(_monomial_ideal(I.ring, acc))


def monomial_minimal_primes(I: Submodule) -> list[tuple[int, ...]]:
    comps = monomial_primdec_oracle(I)
    primes = [set(p) for p, _g in comps]
    kept = [
        p for p in primes if not any(q != p and q.issubset(p) for q in primes)
    ]
    return sorted(tuple(sorted(p)) for p in kept)


# ---------------------------------------------------------------------------
# membership by linear algebra
# ---------------------------------------------------------------------------


def _monomials_up_to(n: int, bound: int):
    if n == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _monomials_up_to(n - 1, bound - first):
            yield (first,) + rest


def membership_oracle(v, A: Submodule, degree_bound: int) -> bool:
    """Whether v lies in A using multipliers of total degree <= degree_bound.

    Solves the linear system over Q directly; independent of any Groebner
    computation.  A True answer always certifies membership, a False answer
    only rules out multipliers up to the bound.
    """
    ring = A.ring
    if v.is_zero():
        return True
    if not A.generators:
        return False
    mons = sorted(_monomials_up_to(ring.n, degree_bound))
    columns = []
    rows: dict[tuple[int, Monomial], int] = {}

    def row_of(key):
        if key not in rows:
            rows[key] = len(rows)
        return rows[key]

    for gen in A.generators:
        for m in mons:
            col: dict[int, Fraction] = {}
            for _k, comp, exps, c in gen.terms:
                shifted = tuple(a + b for a, b in zip(exps, m))
                col[row_of((comp, shifted))] = Fraction(c, gen.den)
            columns.append(col)
    rhs: dict[int, Fraction] = {}
    for _k, comp, exps, c in v.terms:
        rhs[row_of((comp, exps))] = Fraction(c, v.den)
    nrows = len(rows)
    ncols = len(columns)
    dense = [[Fraction(0)] * (ncols + 1) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, val in col.items():
            dense[i][j] = val
    for i, val in rhs.items():
        dense[i][ncols] = val
    pivot_row = 0
    for j in range(ncols):
        sel = None
        for i in range(pivot_row, nrows):
            if dense[i][j]:
                sel = i
                break
        if sel is None:
            continue
        dense[pivot_row], dense[sel] = dense[sel], dense[pivot_row]
        inv = 1 / dense[pivot_row][j]
        prow = [x * inv for x in dense[pivot_row]]
        dense[pivot_row] = prow
        for i in range(nrows):
            if i != pivot_row and dense[i][j]:
                f = dense[i][j]
                dense[i] = [a - f * b for a, b in zip(dense[i], prow)]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return all(not dense[i][ncols] for i in range(pivot_row, nrows))


# ---------------------------------------------------------------------------
# submodule quotient by an ideal
# ---------------------------------------------------------------------------


def quotient_by_ideal(A: Submodule, J: Submodule) -> Submodule:
    """Submodule {v : J v inside A}."""
    ring, s = A.ring, A.ambient_rank
    steps = [
        modulo_kernel(
            Submodule(ring, s, [unit_vector(ring, s, i).scale(f) for i in range(s)]), A
        )
        for f in ideal_generators(J)
        if not f.is_zero()
    ]
    return intersect_many(steps) if steps else full_module(ring, s)


# ---------------------------------------------------------------------------
# validation report with every all-but-one intersection
# ---------------------------------------------------------------------------


def validation_reference(M: Submodule, pairs, seed: int = 0) -> dict:
    """The `as_dict()` of the validator's report for (module, prime) pairs,
    with component i redundant when the other components meet to M, tested
    at every i.  The primary flag is the validator's on each component
    alone, where it has no redundancy to test."""
    Mc = canonical(M)
    F = full_module(M.ring, M.ambient_rank)
    qs = [q for q, _p in pairs]
    messages = []
    intersection = module_equal(intersect_many([F, *qs]), Mc)
    if not intersection:
        messages.append("components do not intersect to the input")
    primary = all(
        validate_decomposition(q, [(q, p)], seed).components_primary for q, p in pairs
    )
    if not primary:
        messages.append("a component is not primary for its claimed prime")
    primes = [canonical(p) for _q, p in pairs]
    distinct = len(set(primes)) == len(primes)
    if not distinct:
        messages.append("two components share a prime")
    redundant = len(qs) > 1 and any(
        module_equal(intersect_many([F, *qs[:i], *qs[i + 1 :]]), Mc) for i in range(len(qs))
    )
    if redundant:
        messages.append("a component is redundant")
    return {
        "ok": intersection and primary and distinct and not redundant,
        "intersection": intersection,
        "components_primary": primary,
        "primes_distinct": distinct,
        "irredundant": not redundant,
        "messages": messages,
    }


# ---------------------------------------------------------------------------
# minimal polynomials over Q(u) by elimination
# ---------------------------------------------------------------------------


def elimination_order(D: tuple[int, ...], d: int) -> MonomialOrder:
    """Blocks (D without d) > x_d > the independent variables."""
    others = tuple(i for i in D if i != d)
    return MonomialOrder(kind="block", blocks=(others, (d,)) if others else ((d,),))


def minpoly_data(J: Submodule, D: tuple[int, ...], d: int):
    """The minimal polynomial over K = Q(u), u the variables outside D, of
    x_d modulo J, an ideal zero dimensional over K: the coefficients, low to
    high and monic, of the least-degree element of J in x_d and u, or None
    when they depend on u."""
    ring = J.ring
    others = tuple(i for i in D if i != d)
    G = buchberger(J, elimination_order(D, d))
    best = None
    for (_comp, lead), gen in zip(G.leading_terms(), G.generators):
        if any(lead[i] for i in others):
            continue
        if best is None or lead[d] < best_deg:
            best, best_deg = gen, lead[d]
    if best is None or best_deg == 0:
        raise ValueError("no elimination polynomial: J is not zero dimensional over Q(u)")
    groups: dict[int, object] = {}
    for _k, _comp, exps, coeff in best.terms:
        upart = tuple(0 if i == d else e for i, e in enumerate(exps))
        groups[exps[d]] = groups.get(exps[d], ring.zero()) + ring.monomial(upart, coeff)
    top = max(groups)
    ctop = groups[top]
    coeffs = []
    for k in range(top + 1):
        c = groups.get(k)
        if c is None:
            coeffs.append(0)
            continue
        lam = c.leading_coefficient() / ctop.leading_coefficient()
        if c != ctop * lam:
            return None
        coeffs.append(lam)
    return tuple(coeffs)


def fraction_minpoly(G, l, dim: int):
    """The monic generator of J cap Q[l], coefficients low to high, or None
    when it has degree above dim or J cap Q[l] = 0, by elimination over Q:
    the first linear dependence among NF(1), NF(l), NF(l^2), ..., each
    NF(l^k) = NF(l * NF(l^(k-1))) taken by `G.reduce_vector` and written as
    a dict of Fractions by exponents.  Each row is kept with its pivot entry
    1 and the combination of powers of l whose normal form it is.  G and l
    are as in `decompose._normal_form_minpoly`."""
    rows = []
    # NF(1) = 1, J being proper
    v = l.ring.one()
    for k in range(dim + 1):
        if k:
            v = G.reduce_vector(v * l)
        w = {exps: Fraction(c, v.den) for _key, _comp, exps, c in v.terms}
        combo = {k: Fraction(1)}
        for pivot, row, row_combo in rows:
            f = w.get(pivot)
            if not f:
                continue
            for m, a in row.items():
                b = w.get(m, 0) - f * a
                if b:
                    w[m] = b
                else:
                    del w[m]
            for j, a in row_combo.items():
                combo[j] = combo.get(j, 0) - f * a
        if not w:
            return tuple(combo.get(j, Fraction(0)) for j in range(k + 1))
        pivot = max(w)
        inv = 1 / w[pivot]
        rows.append(
            (pivot, {m: a * inv for m, a in w.items()}, {j: a * inv for j, a in combo.items()})
        )
    return None


# ---------------------------------------------------------------------------
# products of lead coefficients over Q(u)
# ---------------------------------------------------------------------------


def _monic(f: FreeElement) -> FreeElement:
    return f * (1 / f.leading_coefficient())


def lead_coefficient_product(Q: Submodule, D: tuple[int, ...]) -> FreeElement:
    """The validator's h: the product of the distinct K[u]-lead coefficients
    of a basis of Q, K = Q(u), u the variables outside D.  The basis is in
    position over term with the block x_D first (degrevlex when D is empty),
    and an element's coefficient is the sum of its terms in its lead
    component with the D-part of its lead, made monic."""
    ring = Q.ring
    G = buchberger(Q, MonomialOrder("block", blocks=(D,)) if D else DEGREVLEX)
    coeffs: dict = {}
    for (comp, lead), gen in zip(G.leading_terms(), G.generators):
        dpart = [lead[i] for i in D]
        f = ring.zero()
        for _k, cp, exps, c in gen.terms:
            if cp == comp and [exps[i] for i in D] == dpart:
                f = f + ring.monomial([0 if i in D else e for i, e in enumerate(exps)], c)
        coeffs.setdefault(_monic(f), None)
    h = ring.one()
    for f in coeffs:
        h = h * f
    return h


def _field_lead_coefficient(p: FreeElement, lead, D: tuple[int, ...]) -> FreeElement:
    """Coefficient in the independent variables of the D-part of lead in the
    polynomial p, made monic; p's terms are read whatever their component."""
    def dpart(exps):
        return tuple(e if i in D else 0 for i, e in enumerate(exps))

    f = p.ring.zero()
    for _k, _comp, exps, c in p.terms:
        if dpart(exps) == dpart(lead):
            f = f + p.ring.monomial([0 if i in D else e for i, e in enumerate(exps)], c)
    return _monic(f)


def split_lead_coefficient_product(I: Submodule, D: tuple[int, ...]) -> FreeElement:
    """The GTZ split's h for an ideal I: the product of the distinct
    non-constant lead coefficients over Q[u] of I's basis in the block order
    x_D > u.  Raises ValueError when a lead is D-free."""
    ring = I.ring
    G = buchberger(I, MonomialOrder("block", blocks=(D,)))
    coeffs = set()
    for (_comp, lead), gen in zip(G.leading_terms(), G.generators):
        if not any(lead[i] for i in D):
            raise ValueError("independent set meets the ideal")
        c = _field_lead_coefficient(gen, lead, D)
        if not c.is_constant():
            coeffs.add(c)
    h = ring.one()
    for c in coeffs:
        h = h * c
    return h
