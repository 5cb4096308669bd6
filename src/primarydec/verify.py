"""Independent checks for decompositions.

The monomial oracle decomposes monomial ideals by purely combinatorial
splitting, with no Groebner machinery, so it can confirm hulls and minimal
primes computed by the main pipeline.  The membership oracle solves a dense
linear system over the rationals for the same reason.  The validator checks
the defining properties of a primary decomposition directly.  It tests each
component for primality by contraction over Q(u), u an independent set of
the claimed prime (Gianni-Trager-Zacharias): saturations and Groebner bases,
never an Ext module, so it does not reuse the path that found the primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .decompose import min_ass
from .groebner import (
    annihilator,
    buchberger,
    canonical,
    independent_sets,
    intersect,
    is_member,
    is_sub,
    is_unit_ideal,
    module_equal,
    saturate,
)
from .polyring import (
    DEGREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    RingContext,
    Submodule,
    from_terms,
    ideal,
    ideal_generators,
    rekey,
)


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
# decomposition validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    intersection_ok: bool
    components_primary: bool
    primes_distinct: bool
    irredundant: bool
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.intersection_ok
            and self.components_primary
            and self.primes_distinct
            and self.irredundant
        )

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "intersection": self.intersection_ok,
            "components_primary": self.components_primary,
            "primes_distinct": self.primes_distinct,
            "irredundant": self.irredundant,
            "messages": list(self.messages),
        }


def _lead_coefficient_product(Q: Submodule, D: tuple[int, ...]) -> Polynomial:
    """The product of the distinct K[u]-lead coefficients of a basis of Q,
    K = Q(u), u the variables outside D.

    The basis is taken in position over term with the block x_D first, so
    the lead of an element over K is its lead component with the D-part of
    its lead; the coefficient is the sum of its terms there with that
    D-part.  Term over position would compare the u-part before the
    component, and the lead over K would not be well defined.  Written
    apart from the engine's GTZ split, whose minimal primes it checks.
    """
    ring = Q.ring
    # DEGREVLEX is position over term as well: with D empty, K is the whole
    # fraction field and the lead over K is the lead component alone
    order = MonomialOrder("block", blocks=(D,)) if D else DEGREVLEX
    G = buchberger(Q, order)
    coeffs: dict = {}
    for (comp, lead), gen in zip(G.leading_terms(), G.generators):
        dpart = [lead[i] for i in D]
        items = [
            (0, tuple(0 if i in D else e for i, e in enumerate(exps)), c)
            for _k, cp, exps, c in gen.terms
            if cp == comp and [exps[i] for i in D] == dpart
        ]
        terms = rekey(ring.order, items)
        # over its lead coefficient, so equal coefficients compare equal
        coeffs.setdefault(from_terms(ring, 1, terms, terms[0][3], Polynomial), None)
    h = ring.one()
    for f in coeffs:
        h = h * f
    return h


def _in_radical(f: Polynomial, a: Submodule) -> bool:
    """Whether f^k lies in a for some k: try f, f^2, f^4, then a : f^infinity."""
    g = f
    for _ in range(3):
        if is_member(g, a):
            return True
        g = g * g
    return is_unit_ideal(saturate(a, ideal(a.ring, [f])))


def _is_primary_with_prime(Q: Submodule, P: Submodule, seed: int) -> bool:
    """Whether F/Q has P as its only associated prime, Q and P canonical.

    A contraction certificate (Gianni-Trager-Zacharias; Becker-Weispfenning,
    ch. 8) that needs no Ext module: P is prime; the radical of
    a = ann(F/Q) is P, that is a lies in P and every generator of P in the
    radical of a; and Q = Q : h^infinity for h the product of the K[u]-lead
    coefficients of Q, u an independent set of P.  Then Q K[x_D]^s has
    radical P K[x_D], a maximal ideal, so it is primary, and Q is its
    contraction.  Conversely h lies outside a P-primary Q's one associated
    prime, so h is a nonzerodivisor on F/Q.
    """
    ring = Q.ring
    if min_ass(P, seed) != [canonical(P)]:
        return False
    a = Q if Q.ambient_rank == 1 else annihilator(Q)
    if not is_sub(a, P) or not all(_in_radical(f, a) for f in ideal_generators(P)):
        return False
    u = set(independent_sets(P)[0])
    D = tuple(i for i in range(ring.n) if i not in u)
    h = _lead_coefficient_product(Q, D)
    return h.is_constant() or module_equal(saturate(Q, ideal(ring, [h])), Q)


def _meet(A, B):
    """A cap B, where None stands for the whole ambient module."""
    return B if A is None else A if B is None else intersect(A, B)


def validate_decomposition(M: Submodule, components, seed: int = 0) -> ValidationReport:
    """Check the defining properties of a primary decomposition of M.

    Components may be Component objects or (module, prime) pairs.
    """
    pairs = []
    for comp in components:
        if hasattr(comp, "module"):
            pairs.append((comp.module, comp.prime))
        else:
            pairs.append((comp[0], comp[1]))
    messages: list[str] = []
    Mc = canonical(M)
    # before[i] meets the first i components, after[i] those from i on, so
    # "all but i" is before[i] cap after[i+1]: at most 3k intersections.
    qs = [q for q, _p in pairs]
    k = len(qs)
    before = [None]
    for q in qs:
        before.append(_meet(before[-1], q))
    after = [None] * (k + 1)
    for i in range(k - 1, 0, -1):
        after[i] = _meet(qs[i], after[i + 1])
    intersection_ok = module_equal(before[k], Mc) if k else buchberger(Mc).is_full()
    if not intersection_ok:
        messages.append("components do not intersect to the input")
    components_primary = True
    for q, p in pairs:
        if not _is_primary_with_prime(canonical(q), canonical(p), seed):
            components_primary = False
            messages.append("a component is not primary for its claimed prime")
            break
    canon_primes = [canonical(p) for _q, p in pairs]
    primes_distinct = len(canon_primes) == len(set(canon_primes))
    if not primes_distinct:
        messages.append("two components share a prime")
    # Every component is tested, isolated ones too.  The engine skips isolated
    # components by a height argument; this check must not rely on the
    # argument it is judging.
    irredundant = True
    if k > 1:
        for i in range(k):
            if module_equal(_meet(before[i], after[i + 1]), Mc):
                irredundant = False
                messages.append("a component is redundant")
                break
    return ValidationReport(
        intersection_ok=intersection_ok,
        components_primary=components_primary,
        primes_distinct=primes_distinct,
        irredundant=irredundant,
        messages=tuple(messages),
    )
