"""Exact sparse multivariate polynomials over Q, free-module elements, and orders.

Everything here is immutable and purely functional: operations return new
objects.  An element of R^s is a FreeElement, and a polynomial is simply an
element of R^1, as an ideal is a submodule of R^1; only rank 1 multiplies and
takes powers.  An element stores one tuple of terms (key, comp, exps, c) and
one denominator den, for the value sum c * x^exps * e_comp / den.  Each c is
a nonzero int, key = ring.order.term_key(comp, exps), and the terms are
sorted by descending key: they are the terms the Groebner engine works on.
den > 0 and the gcd of den and every c is 1, so equal values have equal
storage.  Rationals appear only at the boundary: constructors that take a
rational, leading_coefficient and render_polynomial.

A key is one int: the order's digits for the term (MonomialOrder._digits),
packed 64 bits a digit, sum d_j * 2^(64 (L - 1 - j)).  Each digit is a
signed linear form in the component and exponents bounded by the term's
(weighted) degree or component, and both stay below KEY_BOUND = 2^62, so
the first digit in which two keys differ decides their int comparison: int
order is the order of the digit tuples.  Being linear, keys add as terms
multiply, so a shifted key is key + addk.  The last digit is the degree
itself; it never decides a comparison, and key & SIZE_MASK reads it, so a
product checks the bound once per factor: term_key when a key is formed,
_collect per piece, the engine per reduction step and S-pair side.

Every value type is a __slots__ class whose slots are set once, through
_set: FreeElement by hand, as its construction is the hottest, and the rest
on _Value, which compares, hashes, shows and copies one as its field tuple.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import add, attrgetter, mul, neg

Monomial = tuple  # exponent vector, one slot per ring variable

POSITION_OVER_TERM = "position-over-term"
TERM_OVER_POSITION = "term-over-position"

_ORDER_KINDS = ("degrevlex", "lex", "block")


class RingError(ValueError):
    """Operands belong to different rings or have mismatched ranks, or a
    term lies beyond the reach of the order keys."""


# A key packs its digits into one int, 64 bits a digit.  Every digit of a
# term with degree and component below KEY_BOUND is below it in magnitude,
# so the packing is exact and int order is digit-tuple order.
KEY_BOUND = 1 << 62
# the lowest digit of a key: its term's degree
SIZE_MASK = (1 << 64) - 1


def key_overflow() -> RingError:
    return RingError("a term's degree and component must stay below 2^62 for its order key")


_set = object.__setattr__


class _Value:
    """Base of the value types: _fields names the fields, which are the first
    slots and the constructor's arguments; copies start with empty caches."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # attrgetter gives a lone field bare, and the key is a tuple
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _replace(self, **changes):
        """A new instance with some fields changed, like dataclasses.replace."""
        return self.__class__(**dict(zip(self._fields, self._key(self)), **changes))

    def __setattr__(self, *a):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(map("{}={!r}".format, self._fields, self._key(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._key(self)


class MonomialOrder(_Value):
    """A global monomial order plus its extension to free-module terms.

    kind 'block' compares the index tuples in blocks, in turn, before the rest,
    each group by degrevlex.  weights, if given, replace total degree by a
    weighted degree and are only meaningful with kind 'degrevlex'.  Module
    terms are compared position-over-term or term-over-position, with lower
    position index winning ties in both conventions.
    """

    # _units holds, per number of variables, derived once: the keys of the
    # unit exponent vectors and of component 1
    __slots__ = ("kind", "weights", "module_extension", "blocks", "_units")
    _fields = __slots__[:4]

    def __init__(
        self, kind="degrevlex", weights=None, module_extension=POSITION_OVER_TERM, blocks=None
    ):
        # sequences are kept as tuples, so that the order hashes
        weights = None if weights is None else tuple(weights)
        blocks = None if blocks is None else tuple(map(tuple, blocks))
        self._fill(kind, weights, module_extension, blocks, {})
        if self.kind not in _ORDER_KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block":
            if self.blocks is None:
                raise ValueError("block order needs blocks")
            seen: set[int] = set()
            for grp in self.blocks:
                if not grp or any(i < 0 for i in grp) or seen & set(grp):
                    raise ValueError("blocks must be nonempty and disjoint")
                seen |= set(grp)
        elif self.blocks is not None:
            raise ValueError("blocks only valid for block orders")
        if self.weights is not None:
            if self.kind != "degrevlex":
                raise ValueError("weights only supported with degrevlex")
            if any(w <= 0 for w in self.weights):
                raise ValueError("weights must be positive")
        if self.module_extension not in (POSITION_OVER_TERM, TERM_OVER_POSITION):
            raise ValueError(f"unknown module extension {self.module_extension!r}")

    def _degree(self, exps: Monomial) -> int:
        if self.weights is None:
            return sum(exps)
        return sum(map(mul, self.weights, exps))

    def _digits(self, comp: int, exps: Monomial) -> list[int]:
        """The key of a term written out, most significant digit first: the
        negated component first under position over term and last under term
        over position, around the monomial's digits, then the degree.  The
        digits before the degree already tell terms apart, so it decides no
        comparison.  Every digit is linear in comp and exps.  It runs only
        when an order derives its unit keys (_derive_units), not per term.
        """
        if self.kind == "lex":
            mono = list(exps)
        elif self.kind == "block":
            # the groups: each block reversed, then the variables in no block
            # in descending order; per group its degree, then its negated exponents
            groups = [grp[::-1] for grp in self.blocks]
            seen = {i for grp in self.blocks for i in grp}
            groups.append([i for i in reversed(range(len(exps))) if i not in seen])
            mono = []
            for grp in groups:
                sub = [-exps[i] for i in grp]
                mono.append(-sum(sub))
                mono += sub
        else:
            mono = [self._degree(exps), *map(neg, reversed(exps))]
        if self.module_extension == POSITION_OVER_TERM:
            return [-comp, *mono, self._degree(exps)]
        return [*mono, -comp, self._degree(exps)]

    def _derive_units(self, n: int) -> tuple:
        def pack(digits):
            key = 0
            for d in digits:
                key = (key << 64) + d
            return key

        zero = (0,) * n
        units = tuple(pack(self._digits(0, zero[:i] + (1,) + zero[i + 1 :])) for i in range(n))
        self._units[n] = found = (units, pack(self._digits(1, zero)))
        return found

    def unit_keys(self, n: int) -> tuple:
        """(the keys of the n unit exponent vectors, the key of component 1):
        the key of comp, exps is sum(map(mul, exps, units), comp * comp_unit)."""
        return self._units.get(n) or self._derive_units(n)

    def term_key(self, comp: int, exps: Monomial) -> int:
        """The key of comp, exps: larger keys are larger terms, and keys add
        as the terms multiply.  Raises RingError when the term's degree or
        component reaches KEY_BOUND."""
        units, comp_unit = self.unit_keys(len(exps))
        if self._degree(exps) >= KEY_BOUND or not 0 <= comp < KEY_BOUND:
            raise key_overflow()
        return sum(map(mul, exps, units), comp * comp_unit)


DEGREVLEX = MonomialOrder()
LEX = MonomialOrder(kind="lex")


class RingContext(_Value):
    """A polynomial ring Q[variables] together with its active order.  _memo
    holds what groebner keeps for this instance (groebner._GroebnerCache),
    whose bases refer back to the ring: a dropped ring and its memo form a
    cycle, freed by the cyclic garbage collector, not at its last reference."""

    __slots__ = ("variables", "order", "_memo")
    _fields = __slots__[:2]

    def __init__(self, variables: Sequence[str], order: MonomialOrder = DEGREVLEX):
        # its own instance of order, so the unit keys it derives stay with the ring
        # like _memo: an equal fresh ring starts cold; DEGREVLEX and LEX stay empty
        self._fill(tuple(variables), order._replace(), None)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if not self.variables:
            raise ValueError("need at least one variable")
        if self.order.weights is not None and len(self.order.weights) != len(self.variables):
            raise ValueError("weight vector length must match variable count")
        if self.order.blocks is not None:
            for grp in self.order.blocks:
                if any(i >= len(self.variables) for i in grp):
                    raise ValueError("block variable index out of range")

    @property
    def n(self) -> int:
        return len(self.variables)

    def zero(self) -> "FreeElement":
        return from_terms(self, 1, ())

    def one(self) -> "FreeElement":
        return self.constant(1)

    def constant(self, c) -> "FreeElement":
        return self.monomial((0,) * self.n, c)

    def variable(self, i: int) -> "FreeElement":
        return self.monomial(tuple(1 if j == i else 0 for j in range(self.n)))

    def monomial(self, exps: Sequence[int], coeff=1) -> "FreeElement":
        exps = tuple(exps)
        if len(exps) != self.n or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        return poly_from_terms(self, ((exps, coeff),))

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r}") from None


# ---------------------------------------------------------------------------
# term tuples
# ---------------------------------------------------------------------------


def rekey(order: MonomialOrder, items: Iterable) -> tuple:
    """Terms (key, comp, exps, c) keyed in order and sorted by descending key,
    from (comp, exps, c) triples with distinct (comp, exps).

    The one place terms change keys: for a run in another order, a shift of
    components, or a change of ring.  The unit keys are read once, at the
    first term, and each term is checked as term_key checks it.
    """
    weights = order.weights
    terms = []
    for comp, exps, c in items:
        if not terms:
            units, comp_unit = order.unit_keys(len(exps))
        degree = sum(exps) if weights is None else sum(map(mul, weights, exps))
        if degree >= KEY_BOUND or not 0 <= comp < KEY_BOUND:
            raise key_overflow()
        terms.append((sum(map(mul, exps, units), comp * comp_unit), comp, exps, c))
    terms.sort(reverse=True)
    return tuple(terms)


def _collect(pieces, order: MonomialOrder) -> tuple:
    """Sorted terms of the sum of the pieces (terms, factor, shift), each
    factor * x^shift * terms, an empty shift meaning 1.  Like terms are merged
    and zero coefficients dropped."""
    acc: dict = {}
    last = top = None
    for terms, factor, shift in pieces:
        moved = any(shift)
        addk = 0
        if moved:
            # multiplying by x^shift adds its component-0 key, whose lowest
            # digit is the degree the shift adds to every term
            addk = order.term_key(0, shift)
            if terms is not last:
                last, top = terms, max((t[0] & SIZE_MASK for t in terms), default=0)
            if top + (addk & SIZE_MASK) >= KEY_BOUND:
                raise key_overflow()
        for key, comp, exps, c in terms:
            key += addk
            prev = acc.get(key)
            if prev is not None:
                prev[2] += c * factor
            else:
                acc[key] = [comp, tuple(map(add, exps, shift)) if moved else exps, c * factor]
    return tuple((key, *v) for key, v in sorted(acc.items(), reverse=True) if v[2])


def from_terms(ring: RingContext, rank: int, terms: tuple, den: int = 1):
    """The element sum c * x^exps * e_comp / den of terms already keyed in
    ring's order and sorted, reduced to lowest terms.  den may be negative."""
    if not terms:
        den = 1
    elif den != 1:
        g = gcd(den, *(t[3] for t in terms))
        if den < 0:
            g = -g
        if g != 1:
            terms = tuple((k, comp, exps, c // g) for k, comp, exps, c in terms)
            den //= g
    obj = object.__new__(FreeElement)
    _set(obj, "ring", ring)
    _set(obj, "rank", rank)
    _set(obj, "terms", terms)
    _set(obj, "den", den)
    _set(obj, "_hash", None)
    return obj


def poly_from_terms(ring: RingContext, items: Iterable) -> "FreeElement":
    """A polynomial from (exponents, rational coefficient) pairs with distinct
    exponents; zero coefficients are dropped."""
    items = [(exps, Fraction(c)) for exps, c in items if c]
    den = lcm(*(c.denominator for _e, c in items))
    terms = rekey(ring.order, ((0, e, c.numerator * (den // c.denominator)) for e, c in items))
    return from_terms(ring, 1, terms, den)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class FreeElement:
    """Element of a free module R^rank; see the module docstring for storage."""

    __slots__ = ("ring", "rank", "terms", "den", "_hash")

    def __new__(cls, ring: RingContext, components: Sequence["FreeElement"]):
        # the column of the entries is the transpose of the row they form
        return Submodule(ring, 1, components).transpose().generators[0]

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("FreeElement is immutable")

    def __reduce__(self):
        return from_terms, (self.ring, self.rank, self.terms, self.den)

    @property
    def components(self) -> tuple["FreeElement", ...]:
        """The polynomial in each component; a polynomial's is itself."""
        if self.rank == 1:
            return (self,)
        return Submodule(self.ring, self.rank, (self,)).transpose().generators

    # -- structure -----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or not any(self.terms[0][2])

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return Fraction(self.terms[0][3], self.den)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if self.ring != other.ring or self.rank != other.rank:
            raise RingError("rank or ring mismatch")
        den = lcm(self.den, other.den)
        pieces = ((self.terms, den // self.den, ()), (other.terms, den // other.den, ()))
        return from_terms(self.ring, self.rank, _collect(pieces, self.ring.order), den)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, f: FreeElement | int | Fraction) -> FreeElement:
        """The element times f, a polynomial or a rational."""
        ring = self.ring
        if isinstance(f, FreeElement):
            if f.ring != ring or f.rank != 1:
                raise RingError("scalar is not a polynomial of the element's ring")
            pieces = [(self.terms, c, exps) for _k, _c, exps, c in f.terms]
            terms = _collect(pieces, ring.order)
            return from_terms(ring, self.rank, terms, self.den * f.den)
        num, den = f.numerator, f.denominator
        terms = tuple((k, comp, exps, c * num) for k, comp, exps, c in self.terms)
        return from_terms(ring, self.rank, terms if num else (), self.den * den)

    def __mul__(self, other):
        """Ring product, of polynomials only: a vector is scaled instead."""
        if self.rank != 1:
            raise RingError("only polynomials multiply; scale a vector")
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """Power of a polynomial; a vector has none (TypeError)."""
        if self.rank != 1:
            return NotImplemented
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, FreeElement)
            and self.terms == other.terms
            and self.den == other.den
            and self.rank == other.rank
            and self.ring == other.ring
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rank, self.terms, self.den))
            _set(self, "_hash", h)
        return h

    def __str__(self):
        if self.rank == 1:
            return render_polynomial(self)
        return "[" + ",".join(str(p) for p in self.components) + "]"

    def __repr__(self):
        return f"FreeElement({self})"


def _monomial_str(ring: RingContext, exps: Monomial) -> str:
    parts = []
    for name, e in zip(ring.variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render_polynomial(p: FreeElement) -> str:
    """Canonical text form; parses back to an equal polynomial."""
    if p.rank != 1:
        raise RingError("only a polynomial renders; render a vector's components")
    if not p.terms:
        return "0"
    pieces = []
    for idx, (_k, _comp, exps, c) in enumerate(p.terms):
        mono = _monomial_str(p.ring, exps)
        mag = abs(Fraction(c, p.den))
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if idx == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


def substitute(p: FreeElement, images: dict[int, FreeElement]) -> FreeElement:
    """Replace variables by polynomials; indices absent from images stay fixed."""
    ring = p.ring
    for img in images.values():
        if img.ring != ring:
            raise RingError("substitution image from wrong ring")
    powers: dict[tuple[int, int], FreeElement] = {}
    parts = []
    for _k, _comp, exps, c in p.terms:
        q = ring.one()
        for i, e in enumerate(exps):
            if e and i in images:
                if (i, e) not in powers:
                    powers[i, e] = images[i] ** e
                q = q * powers[i, e]
        fixed = tuple(0 if i in images else e for i, e in enumerate(exps))
        parts.append((q, c, fixed))
    den = lcm(*(q.den for q, _c, _e in parts))
    pieces = [(q.terms, c * (den // q.den), fixed) for q, c, fixed in parts]
    return from_terms(ring, 1, _collect(pieces, ring.order), den * p.den)


def unit_vector(ring: RingContext, rank: int, i: int) -> FreeElement:
    return from_terms(ring, rank, rekey(ring.order, [(i, (0,) * ring.n, 1)]))


class Submodule(_Value):
    """A finitely generated submodule of R^ambient_rank given by generators.

    The ordered generators are also the columns of an ambient_rank x g
    matrix, which is what transpose and mul act on.
    """

    __slots__ = ("ring", "ambient_rank", "generators", "_hash")
    _fields = __slots__[:3]

    def __init__(self, ring: RingContext, ambient_rank: int, generators: Sequence[FreeElement]):
        gens = tuple(g for g in generators)
        for g in gens:
            if (g.ring is not ring and g.ring != ring) or g.rank != ambient_rank:
                raise RingError("generator does not match ambient module")
        if ambient_rank < 0:
            raise ValueError("negative rank")
        self._fill(ring, ambient_rank, gens, None)

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.generators)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = super().__hash__()
            _set(self, "_hash", h)
        return h

    def transpose(self) -> "Submodule":
        gens = self.generators
        den = lcm(*(g.den for g in gens))
        rows: list[list] = [[] for _ in range(self.ambient_rank)]
        for j, g in enumerate(gens):
            f = den // g.den
            for _k, i, exps, c in g.terms:
                rows[i].append((j, exps, c * f))
        order = self.ring.order
        cols = [from_terms(self.ring, len(gens), rekey(order, r), den) for r in rows]
        return Submodule(self.ring, len(gens), cols)

    def mul(self, other: "Submodule") -> "Submodule":
        """Matrix product: column j is sum_k other[k, j] * (generator k)."""
        gens = self.generators
        if other.ambient_rank != len(gens):
            raise RingError("matrix shape mismatch")
        order = self.ring.order
        cols = []
        for bc in other.generators:
            den = lcm(*(gens[k].den for _key, k, _e, _c in bc.terms))
            pieces = [
                (gens[k].terms, c * (den // gens[k].den), exps)
                for _key, k, exps, c in bc.terms
            ]
            terms = _collect(pieces, order)
            cols.append(from_terms(self.ring, self.ambient_rank, terms, den * bc.den))
        return Submodule(self.ring, self.ambient_rank, cols)

    def __repr__(self):
        gens = "; ".join(str(g) for g in self.generators)
        return f"Submodule(rank={self.ambient_rank}: {gens})"


def ideal(ring: RingContext, polys: Iterable[FreeElement]) -> Submodule:
    """Ideals are rank-1 submodules, generated by the polynomials themselves."""
    return Submodule(ring, 1, polys)


def ideal_generators(I: Submodule) -> tuple[FreeElement, ...]:
    if I.ambient_rank != 1:
        raise RingError("not an ideal (ambient rank != 1)")
    return I.generators


def full_module(ring: RingContext, rank: int) -> Submodule:
    return Submodule(ring, rank, [unit_vector(ring, rank, i) for i in range(rank)])


def zero_module(ring: RingContext, rank: int) -> Submodule:
    return Submodule(ring, rank, [])
