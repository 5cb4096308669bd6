"""Groebner bases for submodules of free modules over Q[x1..xn].

The engine works on the terms that elements store (see polyring): tuples
(key, component, exponents, coefficient) with int coefficients, sorted by
descending key, where keys are the additive ints produced by MonomialOrder.
A vector enters as its stored terms, and every change of order or of
components goes through _in_order, which re-keys (polyring.rekey) only when
the order or the components change.  S-vectors and reductions run
fraction-free, with the content taken out each time the scale grows 64
bits, and basis elements are primitive (content 1, positive lead).
A result leaves as terms over one denominator: the lead coefficient for
basis generators and syzygies, the accumulated scale times the input's
denominator for normal forms and lifts; in the ring's order a basis
generator shares its engine element's term tuple.  Buchberger runs with the
Gebauer-Moeller pair update; the coprime criterion is applied only to pairs
whose elements both live entirely in one component, since it is unsound for
general module elements; a pair of two single-term elements, whose S-vector
is zero, is dropped too.  Keys add under multiplication, so the engine keys
no shifted term from scratch: a reduction step adds the popped term's key
minus the reducer's lead key, and an S-pair side adds the key of the lcm,
which the pair heap holds already, minus that side's lead key.  Each
element carries the largest degree among its terms, so one comparison per
step and side keeps every degree below polyring.KEY_BOUND, as the lowest
digit of the added key is the degree it adds.  The reduced
basis is inter-reduced from below: a tail term lies under its element's
lead, so only smaller leads can divide it, and each element is reduced
against the finished smaller ones.  All higher operations (syzygies, lifts,
kernels of induced maps, intersections, quotients, saturation, elimination)
reduce to Groebner runs over suitably extended free modules or rings, or in
another monomial order.  The order is an argument of buchberger; every
result stays in the caller's ring.  lead_coefficients reads the lead
coefficients over Q(u) off a block-order basis, for the GTZ split and the
validator alike.  syzygies returns generators of the relations, not a
Groebner basis of them: the run on the tagged generators sets tag-led
remainders aside instead of pairing them, as long as no S-pair leaves a new
top-led element.  syzygies and lift of one matrix share that one memoized
run.

Runs are memoized in one bounded cache (_GroebnerCache) per ring, kept on
the ring, which drops its oldest entry when full and also stores each
reduced basis under the module of its own generators; it also keeps one
instance of each order value, so an order derives its unit keys once per
ring.  Full and split runs share one run path (_GroebnerCache._run).  A
module that is its own reduced basis in the ring order is answered in
another order from its generators, with no run, when no lead moves; and a
full run starts from the cached basis of a proper prefix of the generators.
The eliminations of intersect and saturate lift an operand's cached reduced
basis into the @t ring, where it is recorded as its own reduced basis and
leads the generators, and record their @t-free part as a reduced basis in
the ring order; each only when no lead moves, and no run is made to seed.
All this is exact, as the reduced basis is unique: leads that stay leads
span the initial module in both orders (the standard monomials of any order
are a basis of F/M, see _standing_basis), and S-pairs within a Groebner
basis reduce to zero.  The split runs of syzygies and lift give no reduced
basis and are reused only as themselves.
The powers of a prime P with reduced basis {x_i - a_i : i in S}, a rational
point's ideal or a prime such as (x, y), are written down and recorded with
no run (linear_power): in a global order the products p^e e_c, |e| = m,
p_i = x_i - a_i, lead with x^e e_c, and each tail term is a proper divisor
of its lead, which no other lead of degree m divides.  They are the reduced
basis of P^m F: a remainder has x_S-degree below m, so in y_i = x_i - a_i it
is a Q[x_rest]-combination of the y^e, |e| < m, which P^m F does not
contain unless it is 0.  A monomial submodule, all of whose generators are
single terms x^a e_c, is answered in closed form (Miller-Sturmfels 2005,
ch. 1) and recorded with no run (monomial_basis), as its minimal monomials
are its reduced basis in every order: intersect takes the lcms of pairs of
generators in one component, and saturate by a monomial f zeroes the
exponents of f's variables.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import combinations
from math import gcd
from operator import add, le, mul, sub

from .polyring import (
    POSITION_OVER_TERM,
    TERM_OVER_POSITION,
    KEY_BOUND,
    SIZE_MASK,
    FreeElement,
    MonomialOrder,
    RingContext,
    RingError,
    Submodule,
    from_terms,
    full_module,
    ideal,
    ideal_generators,
    key_overflow,
    rekey,
    unit_vector,
    zero_module,
)

# ---------------------------------------------------------------------------
# engine representation
# ---------------------------------------------------------------------------
# term: (key, comp, exps, coeff) with an int key and an int coeff
# elem: (terms, lead_key, lead_comp, lead_exps, lead_coeff, single_comp,
#        top_degree), primitive: integer content 1 and a positive lead_coeff


def _in_order(terms, order: MonomialOrder, source: MonomialOrder, shift: int = 0):
    """terms, keyed in source, keyed in order with their components moved
    down by shift: terms itself when neither changes."""
    if order == source and not shift:
        return terms
    return rekey(order, ((comp - shift, exps, c) for _k, comp, exps, c in terms))


def _make_elem(terms):
    lead = terms[0]
    comp = lead[1]
    single = comp if all(t[1] == comp for t in terms) else None
    return (terms, lead[0], comp, lead[2], lead[3], single, max(t[0] & SIZE_MASK for t in terms))


def _primitive(terms):
    """Divide by the integer content, making the lead coefficient positive."""
    g = gcd(*(t[3] for t in terms))
    if terms[0][3] < 0:
        g = -g
    if g == 1:
        return tuple(terms)
    return tuple((k, comp, exps, c // g) for k, comp, exps, c in terms)


def _reduce_full(terms, by_comp):
    """Fraction-free tail reduction of terms against the elements in by_comp.

    Returns (s, r) with s a positive integer, r reduced and s * terms - r in
    the module the elements span.  Equal monomials in terms are merged.
    terms and the elements are keyed in one order.  Keys add under
    multiplication, so a reduction step shifts the reducer's tail by the
    popped term's key minus the reducer's lead key: no key is computed here.
    Each time s has grown 64 bits, s and the coefficients so far are divided
    by their gcd, which keeps s an integer and r / s unchanged.
    """
    # the pending terms as [coeff, comp, exps] by negated key, which a
    # min-heap pops largest term first
    pending: dict = {}
    for key, comp, exps, c in terms:
        prev = pending.get(-key)
        if prev is None:
            pending[-key] = [c, comp, exps]
        else:
            prev[0] += c
    heap = list(pending)
    heapq.heapify(heap)
    s = 1
    next_removal = 64  # the bit length of s that triggers a content removal
    out = []
    while heap:
        negkey = heapq.heappop(heap)
        c, comp, exps = pending.pop(negkey)
        if not c:
            continue
        # a lead of higher degree, the lowest digit of its key, cannot divide
        degree = -negkey & SIZE_MASK
        red = None
        for cand in by_comp.get(comp, ()):
            if cand[1] & SIZE_MASK <= degree and all(map(le, cand[3], exps)):
                red = cand
                break
        if red is None:
            out.append((-negkey, comp, exps, c))
            continue
        # cancel c against the lead lc of red: scale everything by lc / g,
        # then subtract (c / g) * shift * red
        lc = red[4]
        g = gcd(c, lc)
        if g != lc:
            mult = lc // g
            s *= mult
            for entry in pending.values():
                entry[0] *= mult
            out = [(k, cp, e, x * mult) for k, cp, e, x in out]
        factor = c // g
        # the negated increment: -(key - lead key)
        neg_addk = negkey + red[1]
        if red[6] + (-neg_addk & SIZE_MASK) >= KEY_BOUND:
            raise key_overflow()
        shift = tuple(map(sub, exps, red[3]))
        for tkey, tcomp, texps, tcoeff in red[0][1:]:
            tkey = neg_addk - tkey
            prev = pending.get(tkey)
            if prev is None:
                pending[tkey] = [-factor * tcoeff, tcomp, tuple(map(add, texps, shift))]
                heapq.heappush(heap, tkey)
            else:
                prev[0] -= factor * tcoeff
        if s.bit_length() > next_removal:
            d = gcd(s, *(t[3] for t in out), *(entry[0] for entry in pending.values()))
            if d != 1:
                s //= d
                for entry in pending.values():
                    entry[0] //= d
                out = [(k, cp, e, x // d) for k, cp, e, x in out]
            next_removal = s.bit_length() + 64
    return s, tuple(out)


def _shift_tail(e, lead, lead_key, factor):
    """factor * (lead / lead of e) * (the terms of e without their lead)."""
    addk = lead_key - e[1]
    if e[6] + (addk & SIZE_MASK) >= KEY_BOUND:
        raise key_overflow()
    shift = tuple(map(sub, lead, e[3]))
    return [
        (key + addk, comp, tuple(map(add, exps, shift)), c * factor)
        for key, comp, exps, c in e[0][1:]
    ]


def _spair(e1, e2, lead_key):
    """S-vector of two elements with one lead component, as unsorted terms
    that may repeat a monomial; _reduce_full merges them.

    lead_key is the key of the lcm of the leads, which the pair update
    computed for the pair heap; each side's key increment is lead_key minus
    that side's lead key."""
    lead = tuple(map(max, e1[3], e2[3]))
    g = gcd(e1[4], e2[4])
    return _shift_tail(e1, lead, lead_key, e2[4] // g) + _shift_tail(
        e2, lead, lead_key, -(e1[4] // g)
    )


def _update_pairs(basis, pair_set, heap, t, order: MonomialOrder):
    """Gebauer-Moeller pair update after appending basis[t].

    The coprime criterion applies only when both elements live in one
    component.  This keeps it off in the tagged run of syzygies, whose
    elements all carry a tag: the Koszul syzygies of the pairs it skips
    would be lost from Syz(A).  A pair of two single-term elements has a
    zero S-vector; like a coprime pair it is kept for criterion M and then
    dropped.
    """
    h = basis[t]
    hcomp, hexps = h[2], h[3]
    single = h[5] is not None
    monomial = len(h[0]) == 1
    # (i, lcm of the leads, S-vector known to reduce to zero), in index order
    cand = []
    for i in range(t):
        e = basis[i]
        if e[2] == hcomp:
            zero = (monomial and len(e[0]) == 1) or (
                single and e[5] is not None and not any(map(min, e[3], hexps))
            )
            cand.append((i, tuple(map(max, e[3], hexps)), zero))
    # criterion M: drop a pair whose lcm a later pair's lcm properly divides,
    # or any kept pair's lcm divides; coprime and monomial pairs are kept for
    # this test and then dropped
    keep = []
    for n, (i, li, zero) in enumerate(cand):
        if zero:
            keep.append((i, li, zero))
            continue
        for _j, lj, _z in keep:
            if all(map(le, lj, li)):
                break
        else:
            for _j, lj, _z in cand[n + 1 :]:
                if lj != li and all(map(le, lj, li)):
                    break
            else:
                keep.append((i, li, zero))
    # criterion B on the pending pairs
    if pair_set:
        lcms = {i: li for i, li, _z in cand}
        for (i, j), lij in list(pair_set.items()):
            if (
                basis[i][2] == hcomp
                and all(map(le, hexps, lij))
                and lcms[i] != lij
                and lcms[j] != lij
            ):
                del pair_set[(i, j)]
    # the key of each lcm, as term_key gives it: both leads have degree below
    # KEY_BOUND, so the lcm's is below 2^63, and its key's lowest digit reads it
    units, comp_unit = order.unit_keys(len(hexps))
    base = hcomp * comp_unit
    for i, li, zero in keep:
        if not zero:
            key = sum(map(mul, li, units), base)
            if key & SIZE_MASK >= KEY_BOUND:
                raise key_overflow()
            pair_set[(i, t)] = li
            heapq.heappush(heap, (key, i, t))


def _buchberger_engine(
    vectors, order: MonomialOrder, split: int | None = None, known=()
):
    """Groebner basis of the known elements and the vectors, and the
    remainders a split run set aside.

    known is a Groebner basis in order, as engine elements: they enter the
    basis with no pairs among themselves, whose S-vectors reduce to zero
    against them, and the vectors then pair with them as usual.  With split
    given, a remainder led in a component >= split is made primitive and
    set aside, never paired and never used to reduce, for as long as no
    S-pair leaves a remainder led below split.  The first one that does ends
    this: the set-aside elements join the basis and the run completes as a
    full one.  Returns (basis, set-aside elements).
    """
    basis = list(known)
    aside = []
    by_comp: dict = {}
    for elem in basis:
        by_comp.setdefault(elem[2], []).append(elem)
    pair_set: dict = {}
    heap: list = []
    truncated = split is not None

    def insert(elem):
        basis.append(elem)
        by_comp.setdefault(elem[2], []).append(elem)
        _update_pairs(basis, pair_set, heap, len(basis) - 1, order)

    def add(terms):
        elem = _make_elem(_primitive(terms))
        if truncated and elem[2] >= split:
            aside.append(elem)
        else:
            insert(elem)

    for v in vectors:
        _s, r = _reduce_full(v, by_comp)
        if r:
            add(r)
    while heap:
        key, i, j = heapq.heappop(heap)
        if pair_set.pop((i, j), None) is None:
            continue
        _s, r = _reduce_full(_spair(basis[i], basis[j], key), by_comp)
        if r:
            if truncated and r[0][1] < split:
                truncated = False
                for elem in aside:
                    insert(elem)
                aside.clear()
            add(r)
    return basis, aside


def _reduced_basis(basis):
    """Minimal leads, fully tail-reduced, primitive, sorted by ascending lead key.

    Every term of an element's tail lies below its lead, and a lead that
    divides a term has a key no larger than the term's.  So only elements
    with smaller leads can reduce a tail, and each kept element is reduced,
    in ascending order, against the finished smaller ones alone.
    """
    final = []
    below: dict = {}
    for e in sorted(basis, key=lambda e: e[1]):
        comp, exps = e[2], e[3]
        if any(all(map(le, k[3], exps)) for k in below.get(comp, ())):
            continue
        _s, r = _reduce_full(e[0], below)
        elem = _make_elem(_primitive(r))
        below.setdefault(comp, []).append(elem)
        final.append(elem)
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
        # the elements by lead component, built at the first reduction
        self._by_comp: dict | None = None

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

    def _reduce_terms(self, terms):
        """_reduce_full of terms, keyed in the basis order, by the basis."""
        if self._by_comp is None:
            self._by_comp = {}
            for e in self._elems:
                self._by_comp.setdefault(e[2], []).append(e)
        return _reduce_full(terms, self._by_comp)

    def _reduce(self, v: FreeElement):
        """(s, r) with r reduced, in the basis order, and s * v.terms - r in
        the module."""
        if v.ring != self.ring or v.rank != self.ambient_rank:
            raise RingError("vector does not match basis ambient module")
        return self._reduce_terms(_in_order(v.terms, self.order, self.ring.order))

    def reduce_vector(self, v: FreeElement) -> FreeElement:
        """Normal form of v, a polynomial when v is one."""
        s, r = self._reduce(v)
        return from_terms(self.ring, v.rank, _in_order(r, self.ring.order, self.order), s * v.den)

    def contains(self, v: FreeElement) -> bool:
        return not self._reduce(v)[1]

    def is_full(self) -> bool:
        """Does the basis generate the whole ambient free module?"""
        zero = (0,) * self.ring.n
        hits = {comp for comp, exps in self.leading_terms() if exps == zero}
        return len(hits) == self.ambient_rank

    def __repr__(self):
        return f"GroebnerBasis({self.module!r})"


def _standing_basis(ring: RingContext, rank: int, gens, leads, order: MonomialOrder):
    """The reduced basis in order of the module gens span, gens sorted, when
    each generator's lead in order is its entry of leads; None when some
    lead moves.

    gens, elements of ring, must be the reduced basis of their module in an
    order that leads them by leads, each primitive with a positive lead, as
    the engine leaves its generators.  Their leads then generate the initial
    module N of that module M in that order.  With every lead unchanged, N
    lies in the initial module N' of M in order.  The standard monomials of
    N and of N' each form a basis of F/M, and those of N' lie among those of
    N, so N = N': gens are a Groebner basis in order too, and still the
    reduced one.  Only their keys and their sequence change.
    """
    pairs = []
    for gen, lead in zip(gens, leads):
        terms = _in_order(gen.terms, order, ring.order)
        if terms[0][1:3] != lead:
            return None
        pairs.append((_make_elem(terms), gen))
    pairs.sort(key=lambda p: p[0][1])
    module = Submodule(ring, rank, [gen for _e, gen in pairs])
    return GroebnerBasis(module, [e for e, _gen in pairs], order)


def linear_basis(P: Submodule):
    """P's reduced generators when each is x_i - a_i, a_i rational, as for a
    rational point or a prime such as (x, y); None for any other ideal."""
    gens = canonical(P).generators
    for g in gens:
        (_k, _c, lead, _x), *tail = g.terms
        if sum(lead) != 1 or len(tail) > 1 or (tail and any(tail[0][2])):
            return None
    return gens


def linear_power(lins, T: Submodule) -> Submodule:
    """P T as its reduced basis, recorded in the ring's memo with no run.

    lins = {x_i - a_i : i in S} is the reduced basis of the prime P, and T
    is P^k F, k >= 0, as this built it, or F = R^s by its unit vectors.  The
    basis is the p^e e_c, |e| = k + 1 (see the module docstring); each is
    t p_i for the one generator t = p^(e - e_i) e_c of T with i at or after
    the last variable of t's lead.  Every p_i and t is primitive with a
    positive lead over its lead coefficient, as a reduced basis is kept, so
    by Gauss's lemma each product is already the engine's element.
    """
    ring = T.ring
    pairs = []
    for t in T.generators:
        lead = t.terms[0][2]
        last = max((i for i, a in enumerate(lead) if a), default=0)
        for p in lins:
            if p.terms[0][2].index(1) >= last:
                # in R^1, F is (1), and 1 p = p
                g = p if T.ambient_rank == 1 and not any(lead) else t.scale(p)
                pairs.append((_make_elem(g.terms), g))
    pairs.sort(key=lambda pair: pair[0][1])
    module = Submodule(ring, T.ambient_rank, [g for _e, g in pairs])
    G = GroebnerBasis(module, [e for e, _g in pairs], ring.order)
    _memo(ring).record((module, ring.order, None), G)
    return module


class _GroebnerCache:
    """What groebner keeps for one ring: the memo of Groebner runs, keyed
    (A, order, split), dropping the oldest entry beyond maxsize; the one
    instance of each order value that its runs use, so each order derives
    its unit keys once per ring; and the ring's @t ring (_t_ring)."""

    def __init__(self, order: MonomialOrder):
        self.maxsize = 4096
        self.entries: dict = {}
        self.orders = {order: order}
        # the order of the tagged runs of syzygies and lift
        self.tagged_order = self.order(order._replace(module_extension=POSITION_OVER_TERM))
        self.t_ring: RingContext | None = None

    def order(self, order: MonomialOrder) -> MonomialOrder:
        """The instance of order's value that the ring's runs use."""
        return self.orders.setdefault(order, order)

    def __call__(self, A: Submodule, order: MonomialOrder, split: int | None = None):
        """Reduced Groebner basis of A in order.  With split, the elements of
        a split run instead (_run)."""
        key = (A, order, split)
        result = self.entries.get(key)
        if result is not None:
            return result
        order = self.order(order)
        if split is None and order != A.ring.order:
            G = self.entries.get((A, A.ring.order, None))
            if G is not None and G.module == A:
                # A is its own reduced basis; in order too when no lead moves
                leads = [g.terms[0][1:3] for g in A.generators]
                result = _standing_basis(A.ring, A.ambient_rank, A.generators, leads, order)
        if result is None:
            result = self._run(A, order, split)
        self.record(key, result)
        return result

    def record(self, key, result):
        """Keep result under key, (A, order, split); a reduced basis (split
        None) also under the module of its own generators."""
        _A, order, split = key
        if split is None:
            self.entries[result.module, order, None] = result
        self.entries[key] = result
        while len(self.entries) > self.maxsize:
            del self.entries[next(iter(self.entries))]

    def _run(self, A: Submodule, order: MonomialOrder, split: int | None):
        """One engine run on A's generators in order.  A full run starts from
        the basis of the longest proper prefix of the generators that has one
        cached in order, and gives the reduced basis.  A split run gives
        (basis led below split, elements led at or above it)."""
        ring, rank, gens = A.ring, A.ambient_rank, A.generators
        known, start = (), 0
        if split is None:
            for j in range(len(gens) - 1, 0, -1):
                G = self.entries.get((Submodule(ring, rank, gens[:j]), order, None))
                if G is not None:
                    known, start = G._elems, j
                    break
        vectors = [_in_order(g.terms, order, ring.order) for g in gens[start:] if g.terms]
        basis, aside = _buchberger_engine(vectors, order, split, known)
        if split is not None:
            top = [e for e in basis if e[2] < split]
            return top, aside + _reduced_basis([e for e in basis if e[2] >= split])
        reduced = _reduced_basis(basis)
        out = [from_terms(ring, rank, _in_order(e[0], ring.order, order), e[4]) for e in reduced]
        return GroebnerBasis(Submodule(ring, rank, out), reduced, order)


def _memo(ring: RingContext) -> _GroebnerCache:
    """What groebner keeps for ring, in its _memo slot, made on first use."""
    if ring._memo is None:
        object.__setattr__(ring, "_memo", _GroebnerCache(ring.order))
    return ring._memo


def _basis(X) -> GroebnerBasis:
    """X when it is a GroebnerBasis, else the basis of the module X."""
    return X if isinstance(X, GroebnerBasis) else buchberger(X)


def buchberger(A: Submodule, order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of A in order, by default the ring's own."""
    # order is passed positionally so that buchberger(A) and
    # buchberger(A, A.ring.order) share one cache entry
    return _memo(A.ring)(A, order or A.ring.order)


def canonical(A: Submodule) -> Submodule:
    """Unique normal form of a submodule: its reduced Groebner generators."""
    return buchberger(A).module


def normal_form(v: FreeElement, G) -> FreeElement:
    """Normal form of v against G, a polynomial when v is one."""
    return _basis(G).reduce_vector(v)


def is_member(v: FreeElement, G) -> bool:
    return _basis(G).contains(v)


def is_sub(A: Submodule, B) -> bool:
    """Is every generator of A contained in B?"""
    B = _basis(B)
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


def _tagged_run(A: Submodule):
    """The Buchberger run on {[a_i; e_i]} split at the tags e_i, which sit
    below the components of A: (top-led basis, syzygy elements), memoized.

    Under position over term a remainder led by a tag has top part zero, so
    its tag part c is a syzygy, A c = 0.  While no S-pair leaves a top-led
    remainder, the top-led basis G = A T (T their tags) comes from the
    inputs alone, and the tag-led remainders set aside generate Syz(A)
    without any S-pair between two of them (Schreyer).  With L the columns
    with G L_i = s_i a_i that reduce each input, a syzygy c equals
    sum c_i / s_i (s_i e_i - T L_i) + T (sum c_i / s_i L_i), the last
    column lying in Syz(G).  So Syz(A) is generated by the (I - TL) columns,
    which are the tag-led remainders of the inputs, together with T times
    the S-pair syzygies of G, which the top S-pairs that the Gebauer-Moeller
    criteria keep (a generating set of the lead-term syzygies) reduce to.

    A top-led S-pair remainder carries a tag that combines earlier ones, and
    unreduced tags compound from there: a principal syzygy module of
    degree 3 came out as 43 generators of degree up to 27.  So the run then
    completes, tag-tag S-pairs included, and the syzygies are the reduced
    tag-led part of its basis, a Groebner basis of Syz(A).
    """
    ring = A.ring
    s, g = A.ambient_rank, len(A.generators)
    zero = (0,) * ring.n
    key = ring.order.term_key
    # the tag den * e_{s+i} of gen = terms / den has the least key of them all
    gens = [
        from_terms(ring, s + g, gen.terms + ((key(s + i, zero), s + i, zero, gen.den),), gen.den)
        for i, gen in enumerate(A.generators)
    ]
    tagged = Submodule(ring, s + g, gens)
    memo = _memo(ring)
    return memo(tagged, memo.tagged_order, s)


def syzygies(A: Submodule) -> Submodule:
    """Generators of the relations among the given generators of A, as a
    submodule of R^g, each monic in position over term; they need not form
    a Groebner basis (see _tagged_run)."""
    ring = A.ring
    s, g = A.ambient_rank, len(A.generators)
    if g == 0:
        return zero_module(ring, 0)
    _top, syz = _tagged_run(A)
    order = _memo(ring).tagged_order
    out = [from_terms(ring, g, _in_order(e[0], ring.order, order, s), e[4]) for e in syz]
    return Submodule(ring, g, out)


def lift(A: Submodule, B: Submodule) -> Submodule:
    """Columns T, a submodule of R^g, with (gens of A) * T = (gens of B).

    Raises ValueError when some generator of B is not in A.
    """
    ring = A.ring
    s, g = A.ambient_rank, len(A.generators)
    if B.ambient_rank != s:
        raise RingError("rank mismatch in lift")
    basis, _syz = _tagged_run(A)
    order = _memo(ring).tagged_order
    top_by_comp: dict = {}
    for e in basis:
        top_by_comp.setdefault(e[2], []).append(e)
    cols = []
    for b in B.generators:
        scale, r = _reduce_full(_in_order(b.terms, order, ring.order), top_by_comp)
        if any(comp < s for _key, comp, _exps, _c in r):
            raise ValueError("lift does not exist: vector outside the module")
        # scale * b = A * (-tail of r)
        cols.append(from_terms(ring, g, _in_order(r, ring.order, order, s), -scale * b.den))
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
        # a term's key does not depend on the rank, so the head keeps its keys
        head = tuple(t for t in rel.terms if t[1] < na)
        if head:
            out.append(from_terms(ring, na, head, rel.den))
    return Submodule(ring, na, out)


def reduce_columns(A: Submodule, G) -> Submodule:
    """Normal form of each generator of A against G, dropping those that vanish."""
    G = _basis(G)
    out = []
    for col in A.generators:
        r = normal_form(col, G)
        if not r.is_zero():
            out.append(r)
    return Submodule(A.ring, A.ambient_rank, out)


# ---------------------------------------------------------------------------
# intersections, quotients, saturation, elimination
# ---------------------------------------------------------------------------


def _t_ring(ring: RingContext) -> RingContext:
    """ring with a first variable @t that its order eliminates, built once."""
    memo = _memo(ring)
    if memo.t_ring is None:
        order = MonomialOrder("block", blocks=((0,),), module_extension=TERM_OVER_POSITION)
        memo.t_ring = RingContext(("@t",) + ring.variables, order)
    return memo.t_ring


def _extend_vector(v: FreeElement, ext: RingContext, ts) -> FreeElement:
    """The sum of a * @t^k * v over (k, a) in ts, a and k ints, over ext."""
    items = [(comp, (k,) + e, c * a) for k, a in ts for _key, comp, e, c in v.terms]
    return from_terms(ext, v.rank, rekey(ext.order, items), v.den)


def _lifted(A: Submodule, ext: RingContext, ts) -> list[FreeElement]:
    """A's generators times the sum of a * @t^k over (k, a) in ts, over ext;
    the a of the top power k is positive.

    When the ring's memo holds A's reduced basis G, G is lifted instead, and
    when no lead moves (_standing_basis, the leads being @t^k times G's) the
    lifted G is recorded in ext's memo as its own reduced basis: its S-pairs
    are G's times the same factor.  A run on a list that starts with it then
    starts from that basis (_GroebnerCache._run).  No run is made to find G.
    """
    G = _memo(A.ring).entries.get((A, A.ring.order, None))
    if G is not None and G.generators:
        k = max(k for k, _a in ts)
        lifted = [_extend_vector(g, ext, ts) for g in G.generators]
        leads = [(g.terms[0][1], (k,) + g.terms[0][2]) for g in G.generators]
        H = _standing_basis(ext, A.ambient_rank, lifted, leads, ext.order)
        if H is not None:
            _memo(ext).record((H.module, ext.order, None), H)
            return list(H.generators)
    return [_extend_vector(a, ext, ts) for a in A.generators]


def _t_free(gens, ext: RingContext, ring: RingContext, s: int) -> Submodule:
    """The elements free of @t in the module gens span, contracted to ring.

    They are the reduced basis of that module in the order ext's block order
    induces on ring's terms; when no lead moves in ring's order they are its
    reduced basis there too (_standing_basis), recorded in ring's memo, so
    canonical of the result runs nothing.
    """
    # ext's order is eliminate's block order for @t
    free = eliminate(Submodule(ext, s, gens), (0,)).generators
    out = [
        from_terms(ring, s, rekey(ring.order, ((i, e[1:], c) for _k, i, e, c in g.terms)), g.den)
        for g in free
    ]
    result = Submodule(ring, s, out)
    leads = [(g.terms[0][1], g.terms[0][2][1:]) for g in free]
    G = _standing_basis(ring, s, out, leads, ring.order)
    if G is not None:
        _memo(ring).record((result, ring.order, None), G)
    return result


def _monomials(A: Submodule):
    """(comp, exps) of each nonzero generator of A when each is one term,
    else None."""
    terms = [g.terms for g in A.generators if g.terms]
    return None if any(len(t) > 1 for t in terms) else [t[0][1:3] for t in terms]


def monomial_basis(ring: RingContext, rank: int, monomials) -> Submodule:
    """The module the x^a e_c, (c, a) in monomials, span, as its reduced
    basis, recorded in ring's memo with no run: its minimal monomials, which
    are the reduced basis in every order, as none divides another."""
    ms = dict.fromkeys(monomials)
    mins = [
        (c, a) for c, a in ms if not any(d == c and b != a and all(map(le, b, a)) for d, b in ms)
    ]
    gens = [from_terms(ring, rank, rekey(ring.order, [(c, a, 1)])) for c, a in mins]
    G = _standing_basis(ring, rank, gens, mins, ring.order)
    _memo(ring).record((G.module, ring.order, None), G)
    return G.module


def _has_every_unit(A: Submodule) -> bool:
    """Whether A's generators include a nonzero constant multiple of every
    unit vector, as full_module builds them: then A is the whole free module.
    It reads the generators only, with no Groebner run."""
    units = {
        g.terms[0][1] for g in A.generators if len(g.terms) == 1 and not any(g.terms[0][2])
    }
    return len(units) == A.ambient_rank


# the @t factors of intersect's two sides; t - 1 spans what 1 - t does, with
# a positive lead
_T_A, _T_B = ((1, 1),), ((0, -1), (1, 1))


def intersect(A: Submodule, B: Submodule) -> Submodule:
    """A cap B: the @t-free part of t A + (t - 1) B.

    When either operand has every unit vector among its generators, it is the
    whole free module and the other operand is returned as given, with no
    elimination run.  When both are monomial, A cap B is spanned by the lcms
    of pairs of generators in one component (monomial_basis).  Otherwise the
    side whose reduced basis the memo holds leads, A when both do, and the
    run starts from that basis (_lifted).
    """
    ring = A.ring
    if B.ring != ring or B.ambient_rank != A.ambient_rank:
        raise RingError("operands live in different modules")
    s = A.ambient_rank
    if not A.generators or not B.generators:
        return zero_module(ring, s)
    if _has_every_unit(A):
        return B
    if _has_every_unit(B):
        return A
    mA, mB = _monomials(A), _monomials(B)
    if mA is not None and mB is not None:
        lcms = [(c, tuple(map(max, a, b))) for c, a in mA for d, b in mB if c == d]
        return monomial_basis(ring, s, lcms)
    ext = _t_ring(ring)
    entries = _memo(ring).entries
    if (A, ring.order, None) not in entries and (B, ring.order, None) in entries:
        gens = _lifted(B, ext, _T_B) + _lifted(A, ext, _T_A)
    else:
        gens = _lifted(A, ext, _T_A) + _lifted(B, ext, _T_B)
    return _t_free(gens, ext, ring, s)


def intersect_many(mods: Sequence[Submodule]) -> Submodule:
    mods = list(mods)
    if not mods:
        raise ValueError("nothing to intersect")
    return reduce(intersect, mods)


def quotient(A: Submodule, B: Submodule) -> Submodule:
    """Ideal {f : f * B inside A} for submodules of the same free module.
    When A is an ideal and B holds a nonzero constant (`_has_every_unit`),
    as `annihilator` passes it, that is A itself: canonical(A), no syzygies."""
    ring = A.ring
    if B.ambient_rank != A.ambient_rank:
        raise RingError("operands live in different modules")
    if A.ambient_rank == 1 and _has_every_unit(B):
        return canonical(A)
    steps = [
        modulo_kernel(Submodule(ring, A.ambient_rank, [b]), A)
        for b in B.generators
        if not b.is_zero()
    ]
    return intersect_many(steps) if steps else ideal(ring, [ring.one()])


def annihilator(A: Submodule) -> Submodule:
    """Ideal of ring elements that multiply the whole ambient module into A."""
    return quotient(A, full_module(A.ring, A.ambient_rank))


def saturate(A: Submodule, J: Submodule) -> Submodule:
    """A : J^infinity in canonical form, computed by elimination.

    For each nonzero generator f of J one Groebner run gives
    A : f^infinity = (A R[t] + (1 - t f) F) cap F (Rabinowitsch), and
    A : J^infinity is the intersection of these.  With no nonzero generator
    in J the result is the whole free module F.  A's generators lead each
    run, as its reduced basis when the memo holds one (_lifted).  When A is
    monomial and each such f one term, A : f^infinity is A with the
    exponents of f's variables set to 0, and no run is made (monomial_basis).
    """
    ring, s = A.ring, A.ambient_rank
    fs = [f for f in ideal_generators(J) if not f.is_zero()]
    mons = _monomials(A)
    if mons is not None and all(len(f.terms) == 1 for f in fs):
        # with no f, F: the x^0 e_c
        sats = [
            monomial_basis(ring, s, [
                (c, tuple(0 if m else e for m, e in zip(f.terms[0][2], a))) for c, a in mons
            ])
            for f in fs
        ] or [monomial_basis(ring, s, [(c, (0,) * ring.n) for c in range(s)])]
        return canonical(intersect_many(sats))
    ext = _t_ring(ring)
    base = _lifted(A, ext, ((0, 1),))
    sats = []
    for f in fs:
        # (1 - @t f) e_i = e_i - @t (f e_i)
        units = [
            unit_vector(ext, s, i)
            + _extend_vector(unit_vector(ring, s, i).scale(f), ext, ((1, -1),))
            for i in range(s)
        ]
        sats.append(_t_free(base + units, ext, ring, s))
    return canonical(intersect_many(sats) if sats else full_module(ring, s))


def eliminate(A: Submodule, drop: Iterable[int]) -> Submodule:
    """Generators of the elements of A free of the dropped variables.

    Under the block order, term over position, the degree in the dropped
    variables leads every term's key, so a basis element whose lead is free
    of them is free of them throughout.
    """
    ring = A.ring
    drop = tuple(sorted(set(drop)))
    if not drop:
        return canonical(A)
    if any(i < 0 or i >= ring.n for i in drop):
        raise ValueError("variable index out of range")
    block = MonomialOrder(kind="block", blocks=(drop,), module_extension=TERM_OVER_POSITION)
    G = buchberger(A, block)
    out = [
        gen
        for gen, (_comp, lead) in zip(G.generators, G.leading_terms())
        if not any(lead[i] for i in drop)
    ]
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


def _max_independent_sets(masks: list[int], n: int):
    """Yield the largest variable sets that contain no mask, as index tuples.

    Nothing is yielded when a mask is empty, that is when a lead is constant.
    """
    if any(m == 0 for m in masks):
        return
    for size in range(n, -1, -1):
        found = False
        for combo in combinations(range(n), size):
            sel = 0
            for i in combo:
                sel |= 1 << i
            if all(m & ~sel for m in masks):
                found = True
                yield combo
        if found:
            return


def krull_dim(X) -> int:
    """Dimension of F/X for a submodule X of the free module F."""
    G = _basis(X)
    n = G.ring.n
    if G.ambient_rank == 0:
        return -1
    leads = G.leading_terms()
    present = {c for c, _e in leads}
    best = -1
    for comp in range(G.ambient_rank):
        if comp not in present:
            return n
        top = next(_max_independent_sets(_support_masks(leads, comp), n), None)
        if top is not None:
            best = max(best, len(top))
    return best


def codim(X) -> int:
    return X.ring.n - krull_dim(X)


def independent_sets(X) -> list[tuple[int, ...]]:
    """All maximum-size variable sets not meeting any leading support."""
    G = _basis(X)
    if G.ambient_rank != 1:
        raise RingError("independent sets are defined for ideals")
    n = G.ring.n
    return list(_max_independent_sets(_support_masks(G.leading_terms(), 0), n))


def lead_coefficients(A: Submodule, D: tuple[int, ...]) -> list[FreeElement]:
    """The distinct non-constant lead coefficients over K[u] of A's reduced
    basis, K = Q(u) and u the variables outside D, each monic, in basis order.

    The basis is in the block order x_D first, position over term whatever
    the ring's module extension (degrevlex when D is empty, K then being the
    whole fraction field), so an element's lead over K is its lead component
    with the D-part of its lead, and its coefficient the sum of its terms
    there with that D-part.  Term over position would compare the u-part
    before the component, and the lead over K would not be well defined.
    """
    ring = A.ring
    G = buchberger(A, MonomialOrder("block", blocks=(D,)) if D else MonomialOrder())
    found: dict = {}
    for (comp, lead), gen in zip(G.leading_terms(), G.generators):
        dpart = [lead[i] for i in D]
        terms = rekey(ring.order, (
            (0, tuple(0 if i in D else e for i, e in enumerate(exps)), c)
            for _k, cp, exps, c in gen.terms
            if cp == comp and [exps[i] for i in D] == dpart
        ))
        # over its lead coefficient, so equal coefficients compare equal
        c = from_terms(ring, 1, terms, terms[0][3])
        if not c.is_constant():
            found.setdefault(c, None)
    return list(found)
