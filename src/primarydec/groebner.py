"""Groebner bases for submodules of free modules over Q[x1..xn].

The engine keeps each vector as a tuple of terms (key, component, exponents,
coefficient) sorted by descending key, where keys are the additive tuples
produced by MonomialOrder.  Coefficients are Python ints: a vector enters
with its denominators cleared, S-vectors and reductions run fraction-free,
and basis elements are primitive (content 1, positive lead).  Fractions are
built only at the boundary, where a result is divided by one integer: its
lead coefficient for basis generators and syzygies, the accumulated scale
for normal forms and lifts.  Buchberger runs with the Gebauer-Moeller pair
update; the coprime criterion is applied only to pairs whose elements both
live entirely in one component, since it is unsound for general module
elements.  All higher operations (syzygies, lifts, kernels of induced maps,
intersections, quotients, saturation, elimination) reduce to Groebner runs
over suitably extended free modules or rings, or in another monomial order.
The order is an argument of buchberger; every result stays in the caller's
ring.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import add, le, neg, sub
from typing import Iterable, Sequence, Union

from .polyring import (
    POSITION_OVER_TERM,
    TERM_OVER_POSITION,
    FreeElement,
    MonomialOrder,
    Polynomial,
    RingContext,
    RingError,
    Submodule,
    full_module,
    ideal,
    ideal_generators,
    poly_from_terms,
    unit_vector,
    zero_module,
)

# ---------------------------------------------------------------------------
# engine representation
# ---------------------------------------------------------------------------
# term: (key, comp, exps, coeff) with an int coeff
# elem: (terms, lead_key, lead_comp, lead_exps, lead_coeff, single_comp),
#       primitive: integer content 1 and a positive lead_coeff


def _to_engine_terms(v: FreeElement, order: MonomialOrder):
    """Integer terms of denom * v, sorted by descending key, and denom."""
    denom = lcm(*(c.denominator for p in v.components for _e, c in p.terms))
    terms = [
        (order.term_key(comp, exps), comp, exps, c.numerator * denom // c.denominator)
        for comp, poly in enumerate(v.components)
        for exps, c in poly.terms
    ]
    terms.sort(reverse=True)
    return tuple(terms), denom


def _from_engine_terms(
    ring: RingContext,
    rank: int,
    terms,
    order: MonomialOrder,
    first: int = 0,
    scale: int = 1,
) -> FreeElement:
    """Components first .. first+rank-1 of engine terms in order, over scale."""
    buckets: list[list] = [[] for _ in range(rank)]
    for _key, comp, exps, c in terms:
        buckets[comp - first].append((exps, Fraction(c, scale)))
    if order.same_ring_key(ring.order):
        # within one component the engine terms are then in the ring's order
        return FreeElement(ring, tuple(Polynomial(ring, tuple(b)) for b in buckets))
    return FreeElement(ring, tuple(poly_from_terms(ring, b) for b in buckets))


def _make_elem(terms):
    lead = terms[0]
    comp = lead[1]
    single = comp if all(t[1] == comp for t in terms) else None
    return (terms, lead[0], comp, lead[2], lead[3], single)


def _primitive(terms):
    """Divide by the integer content, making the lead coefficient positive."""
    g = gcd(*(t[3] for t in terms))
    if terms[0][3] < 0:
        g = -g
    if g == 1:
        return tuple(terms)
    return tuple((k, comp, exps, c // g) for k, comp, exps, c in terms)


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _reduce_full(terms, by_comp, order: MonomialOrder):
    """Fraction-free tail reduction of terms against the elements in by_comp.

    Returns (s, r) with s a positive integer, r reduced and s * terms - r in
    the module the elements span.  Equal monomials in terms are merged.
    """
    # a min-heap of negated keys pops the largest term first
    coeffs: dict = {}
    heap = []
    for key, comp, exps, c in terms:
        spot = (comp, exps)
        prev = coeffs.get(spot)
        if prev is None:
            coeffs[spot] = c
            heap.append((tuple(map(neg, key)), comp, exps))
        else:
            coeffs[spot] = prev + c
    heapq.heapify(heap)
    s = 1
    out = []
    out_coeffs = []
    while heap:
        negkey, comp, exps = heapq.heappop(heap)
        c = coeffs.pop((comp, exps), None)
        if not c:
            continue
        red = None
        for cand in by_comp.get(comp, ()):
            if all(map(le, cand[3], exps)):
                red = cand
                break
        if red is None:
            out.append((tuple(map(neg, negkey)), comp, exps))
            out_coeffs.append(c)
            continue
        # cancel c against the lead lc of red: scale everything by lc / g,
        # then subtract (c / g) * shift * red
        lc = red[4]
        g = gcd(c, lc)
        if g != lc:
            mult = lc // g
            s *= mult
            for spot in coeffs:
                coeffs[spot] *= mult
            out_coeffs = [x * mult for x in out_coeffs]
        factor = c // g
        shift = tuple(map(sub, exps, red[3]))
        neg_addk = tuple(map(neg, order.addend(shift)))
        for tkey, tcomp, texps, tcoeff in red[0][1:]:
            nexps = tuple(map(add, texps, shift))
            spot = (tcomp, nexps)
            prev = coeffs.get(spot)
            if prev is None:
                coeffs[spot] = -factor * tcoeff
                heapq.heappush(heap, (tuple(map(sub, neg_addk, tkey)), tcomp, nexps))
            else:
                coeffs[spot] = prev - factor * tcoeff
    return s, tuple((*t, c) for t, c in zip(out, out_coeffs))


def _shift_tail(terms, shift, factor, order: MonomialOrder):
    """factor * shift * (terms without their lead)."""
    addk = order.addend(shift)
    return [
        (tuple(map(add, key, addk)), comp, tuple(map(add, exps, shift)), c * factor)
        for key, comp, exps, c in terms[1:]
    ]


def _spair(e1, e2, order: MonomialOrder):
    """S-vector of two elements with one lead component, as unsorted terms
    that may repeat a monomial; _reduce_full merges them."""
    lead = tuple(map(max, e1[3], e2[3]))
    m1 = tuple(map(sub, lead, e1[3]))
    m2 = tuple(map(sub, lead, e2[3]))
    g = gcd(e1[4], e2[4])
    return _shift_tail(e1[0], m1, e2[4] // g, order) + _shift_tail(
        e2[0], m2, -(e1[4] // g), order
    )


def _coprime_ok(e1, e2) -> bool:
    if e1[5] is None or e2[5] is None:
        return False
    return not any(map(min, e1[3], e2[3]))


def _update_pairs(basis, by_comp, pair_set, heap, t, order: MonomialOrder):
    """Gebauer-Moeller pair update after appending basis[t]."""
    h = basis[t]
    hcomp, hexps = h[2], h[3]
    cand = [i for i in range(t) if basis[i][2] == hcomp]
    lcms = {i: tuple(map(max, basis[i][3], hexps)) for i in cand}
    coprime = {i: _coprime_ok(basis[i], h) for i in cand}
    keep = []
    rest = list(cand)
    while rest:
        i = rest.pop(0)
        li = lcms[i]
        if coprime[i] or (
            not any(_divides(lcms[j], li) and lcms[j] != li for j in rest)
            and not any(_divides(lcms[j], li) for j in keep)
        ):
            keep.append(i)
    for (i, j) in list(pair_set.keys()):
        if basis[i][2] != hcomp:
            continue
        lij = pair_set[(i, j)]
        if _divides(hexps, lij) and lcms[i] != lij and lcms[j] != lij:
            del pair_set[(i, j)]
    for i in keep:
        if coprime[i]:
            continue
        key = order.term_key(hcomp, lcms[i])
        pair_set[(i, t)] = lcms[i]
        heapq.heappush(heap, (key, i, t))


def _buchberger_engine(vectors, order: MonomialOrder):
    basis = []
    by_comp: dict = {}
    pair_set: dict = {}
    heap: list = []

    def add(terms):
        elem = _make_elem(_primitive(terms))
        basis.append(elem)
        by_comp.setdefault(elem[2], []).append(elem)
        _update_pairs(basis, by_comp, pair_set, heap, len(basis) - 1, order)

    for v in vectors:
        _s, r = _reduce_full(v, by_comp, order)
        if r:
            add(r)
    while heap:
        _key, i, j = heapq.heappop(heap)
        if pair_set.pop((i, j), None) is None:
            continue
        _s, r = _reduce_full(_spair(basis[i], basis[j], order), by_comp, order)
        if r:
            add(r)
    return basis


def _reduced_basis(basis, order: MonomialOrder):
    """Minimal leads, fully tail-reduced, primitive, sorted by ascending lead key."""
    ordered = sorted(basis, key=lambda e: e[1])
    kept = []
    for e in ordered:
        if not any(k[2] == e[2] and _divides(k[3], e[3]) for k in kept):
            kept.append(e)
    final = []
    for idx, e in enumerate(kept):
        others: dict = {}
        for j, k in enumerate(kept):
            if j != idx:
                others.setdefault(k[2], []).append(k)
        _s, r = _reduce_full(e[0], others, order)
        final.append(_make_elem(_primitive(r)))
    final.sort(key=lambda e: e[1])
    return final


# ---------------------------------------------------------------------------
# public Groebner interface
# ---------------------------------------------------------------------------


class GroebnerBasis:
    """Reduced Groebner basis of a submodule in the given monomial order.

    The generators are monic in that order and sorted by ascending leading
    term.  They live in the module's own ring, so their term lists are sorted
    in the ring's order: read leading terms from leading_terms().
    """

    def __init__(self, module: Submodule, elems, order: MonomialOrder):
        self.module = module
        self.order = order
        self._elems = elems
        self._by_comp: dict = {}
        for e in elems:
            self._by_comp.setdefault(e[2], []).append(e)

    @property
    def ring(self) -> RingContext:
        return self.module.ring

    @property
    def ambient_rank(self) -> int:
        return self.module.ambient_rank

    @property
    def generators(self):
        return self.module.generators

    def leading_terms(self):
        return tuple((e[2], e[3]) for e in self._elems)

    def reduce_vector(self, v: FreeElement) -> FreeElement:
        if v.ring != self.ring or v.rank != self.ambient_rank:
            raise RingError("vector does not match basis ambient module")
        terms, denom = _to_engine_terms(v, self.order)
        s, r = _reduce_full(terms, self._by_comp, self.order)
        return _from_engine_terms(
            self.ring, self.ambient_rank, r, self.order, scale=s * denom
        )

    def contains(self, v: FreeElement) -> bool:
        return self.reduce_vector(v).is_zero()

    def is_full(self) -> bool:
        """Does the basis generate the whole ambient free module?"""
        zero = (0,) * self.ring.n
        hits = {comp for comp, exps in self.leading_terms() if exps == zero}
        return len(hits) == self.ambient_rank

    def __repr__(self):
        return f"GroebnerBasis({self.module!r})"


@lru_cache(maxsize=4096)
def _gb_cached(A: Submodule, order: MonomialOrder) -> GroebnerBasis:
    vectors = [
        _to_engine_terms(g, order)[0] for g in A.generators if not g.is_zero()
    ]
    basis = _buchberger_engine(vectors, order)
    reduced = _reduced_basis(basis, order)
    gens = tuple(
        _from_engine_terms(A.ring, A.ambient_rank, e[0], order, scale=e[4])
        for e in reduced
    )
    return GroebnerBasis(Submodule(A.ring, A.ambient_rank, gens), reduced, order)


def buchberger(A: Submodule, order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of A in order, by default the ring's own."""
    # order is passed positionally so that buchberger(A) and
    # buchberger(A, A.ring.order) share one cache entry
    return _gb_cached(A, order or A.ring.order)


def canonical(A: Submodule) -> Submodule:
    """Unique normal form of a submodule: its reduced Groebner generators."""
    return buchberger(A).module


def normal_form(v, G) -> Union[FreeElement, Polynomial]:
    if isinstance(G, Submodule):
        G = buchberger(G)
    if isinstance(v, Polynomial):
        r = G.reduce_vector(FreeElement(v.ring, (v,)))
        return r.components[0]
    return G.reduce_vector(v)


def is_member(v, G) -> bool:
    r = normal_form(v, G)
    return r.is_zero()


def is_sub(A: Submodule, B) -> bool:
    """Is every generator of A contained in B?"""
    if isinstance(B, Submodule):
        B = buchberger(B)
    return all(B.contains(g) for g in A.generators)


def module_equal(A: Submodule, B: Submodule) -> bool:
    if A.ring != B.ring:
        raise RingError("operands live in different rings")
    return canonical(A) == canonical(B)


def is_unit_ideal(I: Submodule) -> bool:
    if I.ambient_rank != 1:
        raise RingError("not an ideal")
    return buchberger(I).is_full()


# ---------------------------------------------------------------------------
# syzygies and lifting
# ---------------------------------------------------------------------------


def _augmented_order(order: MonomialOrder) -> MonomialOrder:
    if order.module_extension == POSITION_OVER_TERM:
        return order
    return MonomialOrder(
        kind=order.kind,
        split_index=None,
        weights=order.weights,
        module_extension=POSITION_OVER_TERM,
        blocks=order.blocks,
    )


def _augmented_gb(A: Submodule) -> GroebnerBasis:
    """GB of {[a_i; e_i]} with the original components dominating the tags."""
    ring = A.ring
    s, g = A.ambient_rank, len(A.generators)
    zero = ring.zero()
    gens = []
    for i, gen in enumerate(A.generators):
        tail = [zero] * g
        tail[i] = ring.one()
        gens.append(FreeElement(ring, gen.components + tuple(tail)))
    return buchberger(Submodule(ring, s + g, gens), _augmented_order(ring.order))


def syzygies(A: Submodule) -> Submodule:
    """Relations among the given generators of A, as a submodule of R^g."""
    ring = A.ring
    s, g = A.ambient_rank, len(A.generators)
    if g == 0:
        return zero_module(ring, 0)
    gb = _augmented_gb(A)
    out = []
    for e in gb._elems:
        if e[2] >= s:
            out.append(_from_engine_terms(ring, g, e[0], gb.order, s, e[4]))
    return Submodule(ring, g, out)


def lift(A: Submodule, B: Submodule) -> Submodule:
    """Columns T, a submodule of R^g, with (gens of A) * T = (gens of B).

    Raises ValueError when some generator of B is not in A.
    """
    ring = A.ring
    s, g = A.ambient_rank, len(A.generators)
    if B.ambient_rank != s:
        raise RingError("rank mismatch in lift")
    gb = _augmented_gb(A)
    top_by_comp: dict = {}
    for e in gb._elems:
        if e[2] < s:
            top_by_comp.setdefault(e[2], []).append(e)
    cols = []
    for b in B.generators:
        terms, denom = _to_engine_terms(b, gb.order)
        scale, r = _reduce_full(terms, top_by_comp, gb.order)
        if any(comp < s for _key, comp, _exps, _c in r):
            raise ValueError("lift does not exist: vector outside the module")
        # scale * denom * b = A * (-tail of r)
        cols.append(_from_engine_terms(ring, g, r, gb.order, s, -scale * denom))
    return Submodule(ring, g, cols)


def modulo_kernel(A: Submodule, B: Submodule) -> Submodule:
    """Preimage {x : A x in im B}, generators read as matrix columns."""
    if A.ambient_rank != B.ambient_rank:
        raise RingError("row mismatch in modulo_kernel")
    ring = A.ring
    na = len(A.generators)
    combined = Submodule(ring, A.ambient_rank, A.generators + B.generators)
    S = syzygies(combined)
    out = []
    for rel in S.generators:
        head = FreeElement(ring, rel.components[:na])
        if not head.is_zero():
            out.append(head)
    return Submodule(ring, na, out)


def reduce_columns(A: Submodule, G) -> Submodule:
    """Normal form of each generator of A against G, dropping those that vanish."""
    if isinstance(G, Submodule):
        G = buchberger(G)
    out = []
    for col in A.generators:
        r = normal_form(col, G)
        if not r.is_zero():
            out.append(r)
    return Submodule(A.ring, A.ambient_rank, out)


# ---------------------------------------------------------------------------
# intersections, quotients, saturation, elimination
# ---------------------------------------------------------------------------


def _extend_vector(v: FreeElement, ext: RingContext) -> FreeElement:
    comps = []
    for p in v.components:
        comps.append(
            poly_from_terms(ext, (((0,) + e, c) for e, c in p.terms))
        )
    return FreeElement(ext, tuple(comps))


def _contract_vector(v: FreeElement, ring: RingContext) -> FreeElement:
    comps = []
    for p in v.components:
        assert all(e[0] == 0 for e, _c in p.terms)
        comps.append(poly_from_terms(ring, ((e[1:], c) for e, c in p.terms)))
    return FreeElement(ring, tuple(comps))


def intersect(A: Submodule, B: Submodule) -> Submodule:
    """A cap B via one auxiliary variable that weights the two copies."""
    ring = A.ring
    if B.ring != ring or B.ambient_rank != A.ambient_rank:
        raise RingError("operands live in different modules")
    s = A.ambient_rank
    if not A.generators or not B.generators:
        return zero_module(ring, s)
    ext = RingContext(
        ("@t",) + ring.variables,
        MonomialOrder(
            kind="block", blocks=((0,),), module_extension=TERM_OVER_POSITION
        ),
    )
    t = ext.variable(0)
    one = ext.one()
    gens = []
    for a in A.generators:
        gens.append(_extend_vector(a, ext).scale(t))
    for b in B.generators:
        gens.append(_extend_vector(b, ext).scale(one - t))
    gb = buchberger(Submodule(ext, s, gens))
    out = []
    for gen in gb.generators:
        if all(all(e[0] == 0 for e, _c in p.terms) for p in gen.components):
            out.append(_contract_vector(gen, ring))
    return Submodule(ring, s, out)


def intersect_many(mods: Sequence[Submodule]) -> Submodule:
    mods = list(mods)
    if not mods:
        raise ValueError("nothing to intersect")
    acc = mods[0]
    for m in mods[1:]:
        acc = intersect(acc, m)
    return acc


def quotient(A: Submodule, B: Submodule) -> Submodule:
    """Ideal {f : f * B inside A} for submodules of the same free module."""
    ring = A.ring
    if B.ambient_rank != A.ambient_rank:
        raise RingError("operands live in different modules")
    result = None
    for b in B.generators:
        if b.is_zero():
            continue
        I_b = modulo_kernel(Submodule(ring, A.ambient_rank, [b]), A)
        result = I_b if result is None else intersect(result, I_b)
    if result is None:
        return ideal(ring, [ring.one()])
    return result


def annihilator(A: Submodule) -> Submodule:
    """Ideal of ring elements that multiply the whole ambient module into A."""
    return quotient(A, full_module(A.ring, A.ambient_rank))


def quotient_by_ideal(A: Submodule, J: Submodule) -> Submodule:
    """Submodule {v : J v inside A}."""
    ring = A.ring
    s = A.ambient_rank
    result = None
    for f in ideal_generators(J):
        if f.is_zero():
            continue
        scaled = Submodule(
            ring, s, [unit_vector(ring, s, i).scale(f) for i in range(s)]
        )
        step = modulo_kernel(scaled, A)
        result = step if result is None else intersect(result, step)
    if result is None:
        return full_module(ring, s)
    return result


def saturate(A: Submodule, J: Submodule) -> tuple[Submodule, int]:
    """Stable value of repeated quotients by J, with the step count needed."""
    prev = canonical(A)
    k = 0
    while True:
        nxt = canonical(quotient_by_ideal(prev, J))
        if nxt == prev:
            return prev, k
        prev = nxt
        k += 1


def eliminate(A: Submodule, drop: Iterable[int]) -> Submodule:
    """Generators of the elements of A free of the dropped variables."""
    ring = A.ring
    drop = tuple(sorted(set(drop)))
    if not drop:
        return canonical(A)
    if any(i < 0 or i >= ring.n for i in drop):
        raise ValueError("variable index out of range")
    block = MonomialOrder(
        kind="block", blocks=(drop,), module_extension=TERM_OVER_POSITION
    )
    out = []
    for gen in buchberger(A, block).generators:
        if all(
            all(all(e[i] == 0 for i in drop) for e, _c in p.terms)
            for p in gen.components
        ):
            out.append(gen)
    return Submodule(ring, A.ambient_rank, out)


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------


def _support_masks(leads, comp: int) -> list[int]:
    masks = []
    for c, exps in leads:
        if c != comp:
            continue
        m = 0
        for i, e in enumerate(exps):
            if e:
                m |= 1 << i
        masks.append(m)
    return masks


def _monomial_dim(masks: list[int], n: int) -> int:
    if any(m == 0 for m in masks):
        return -1
    for size in range(n, -1, -1):
        for combo in combinations(range(n), size):
            sel = 0
            for i in combo:
                sel |= 1 << i
            if all(m & ~sel for m in masks):
                return size
    return -1


def krull_dim(X) -> int:
    """Dimension of F/X for a submodule X of the free module F."""
    G = X if isinstance(X, GroebnerBasis) else buchberger(X)
    n = G.ring.n
    if G.ambient_rank == 0:
        return -1
    leads = G.leading_terms()
    present = {c for c, _e in leads}
    best = -1
    for comp in range(G.ambient_rank):
        if comp not in present:
            return n
        best = max(best, _monomial_dim(_support_masks(leads, comp), n))
    return best


def codim(X) -> int:
    G = X if isinstance(X, GroebnerBasis) else buchberger(X)
    return G.ring.n - krull_dim(G)


def independent_sets(X) -> list[tuple[int, ...]]:
    """All maximum-size variable sets not meeting any leading support."""
    G = X if isinstance(X, GroebnerBasis) else buchberger(X)
    if G.ambient_rank != 1:
        raise RingError("independent sets are defined for ideals")
    n = G.ring.n
    masks = _support_masks(G.leading_terms(), 0)
    if any(m == 0 for m in masks):
        return []
    for size in range(n, -1, -1):
        found = []
        for combo in combinations(range(n), size):
            sel = 0
            for i in combo:
                sel |= 1 << i
            if all(m & ~sel for m in masks):
                found.append(combo)
        if found:
            return found
    return []
