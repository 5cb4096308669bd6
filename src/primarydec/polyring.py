"""Exact sparse multivariate polynomials over Q, free-module elements, and orders.

Everything here is immutable and purely functional: operations return new
objects, coefficients are exact rationals, and term lists are kept strictly
sorted so that equal values have equal representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, neg
from typing import Iterable, Sequence, Union

Monomial = tuple  # exponent vector, one slot per ring variable

POSITION_OVER_TERM = "position-over-term"
TERM_OVER_POSITION = "term-over-position"

_ORDER_KINDS = ("degrevlex", "lex", "block")


class RingError(ValueError):
    """Operands belong to different rings or have mismatched ranks."""


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order plus its extension to free-module terms.

    kind 'block' compares the index tuples in blocks, in turn, before the rest,
    each group by degrevlex.  weights, if given, replace total degree by a
    weighted degree and are only meaningful with kind 'degrevlex'.  Module
    terms are compared position-over-term or term-over-position, with lower
    position index winning ties in both conventions.
    """

    kind: str = "degrevlex"
    weights: tuple[int, ...] | None = None
    module_extension: str = POSITION_OVER_TERM
    blocks: tuple[tuple[int, ...], ...] | None = None
    # variable indices covered by blocks, derived from them once
    _in_blocks: frozenset = field(
        default=frozenset(), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
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
            object.__setattr__(self, "_in_blocks", frozenset(seen))
        elif self.blocks is not None:
            raise ValueError("blocks only valid for block orders")
        if self.weights is not None:
            if self.kind != "degrevlex":
                raise ValueError("weights only supported with degrevlex")
            if any(w <= 0 for w in self.weights):
                raise ValueError("weights must be positive")
        if self.module_extension not in (POSITION_OVER_TERM, TERM_OVER_POSITION):
            raise ValueError(f"unknown module extension {self.module_extension!r}")

    def ring_key(self, exps: Monomial) -> tuple:
        """Sort key for a monomial; keys add componentwise under multiplication."""
        if self.kind == "lex":
            return exps
        if self.kind == "block":
            key: list[int] = []
            for grp in self.blocks:
                sub = [exps[i] for i in grp]
                key.append(sum(sub))
                key.extend(-e for e in reversed(sub))
            used = self._in_blocks
            rest = [e for i, e in enumerate(exps) if i not in used]
            key.append(sum(rest))
            key.extend(-e for e in reversed(rest))
            return tuple(key)
        if self.weights is not None:
            deg = sum(map(mul, self.weights, exps))
        else:
            deg = sum(exps)
        return (deg, *map(neg, reversed(exps)))

    def same_ring_key(self, other: "MonomialOrder") -> bool:
        """Do both orders rank monomials alike, whatever their module extension?"""
        mine = (self.kind, self.weights, self.blocks)
        return mine == (other.kind, other.weights, other.blocks)

    def term_key(self, comp: int, exps: Monomial) -> tuple:
        if self.module_extension == POSITION_OVER_TERM:
            return (-comp, *self.ring_key(exps))
        return (*self.ring_key(exps), -comp)

    def addend(self, exps: Monomial) -> tuple:
        """Key increment contributed by multiplying a term by the monomial exps."""
        if self.module_extension == POSITION_OVER_TERM:
            return (0, *self.ring_key(exps))
        return (*self.ring_key(exps), 0)


DEGREVLEX = MonomialOrder()
LEX = MonomialOrder(kind="lex")


@dataclass(frozen=True)
class RingContext:
    """A polynomial ring Q[variables] together with its active order."""

    variables: tuple[str, ...]
    order: MonomialOrder = DEGREVLEX

    def __post_init__(self) -> None:
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

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, (((0,) * self.n, c),))

    def variable(self, i: int) -> "Polynomial":
        exps = tuple(1 if j == i else 0 for j in range(self.n))
        return Polynomial(self, ((exps, Fraction(1)),))

    def monomial(self, exps: Sequence[int], coeff=1) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.n or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        return Polynomial(self, ((exps, coeff),))

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r}") from None


def poly_from_terms(ring: RingContext, items: Iterable) -> "Polynomial":
    """Polynomial from (exponents, coefficient) pairs with distinct exponents.

    Zero coefficients are dropped and the terms sorted descending in the
    ring's order.
    """
    key = ring.order.ring_key
    terms = [(exps, c) for exps, c in items if c]
    terms.sort(key=lambda t: key(t[0]), reverse=True)
    return Polynomial(ring, tuple(terms))


class Polynomial:
    """Immutable polynomial; terms are (exponents, coefficient) sorted descending."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingContext, terms: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- structure -----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or sum(self.terms[0][0]) == 0

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.terms[0][1]

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingError("mixed rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._check(other)
        acc = dict(self.terms)
        for exps, c in other.terms:
            acc[exps] = acc.get(exps, Fraction(0)) + c
        return poly_from_terms(self.ring, acc.items())

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, tuple((e, k * c) for e, k in self.terms))
        self._check(other)
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return poly_from_terms(self.ring, acc.items())

    __rmul__ = __mul__

    def __pow__(self, k: int):
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
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, self.terms))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return render_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({render_polynomial(self)!r})"


def _monomial_str(ring: RingContext, exps: Monomial) -> str:
    parts = []
    for name, e in zip(ring.variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render_polynomial(p: Polynomial) -> str:
    """Canonical text form; parses back to an equal polynomial."""
    if not p.terms:
        return "0"
    pieces = []
    for idx, (exps, c) in enumerate(p.terms):
        mono = _monomial_str(p.ring, exps)
        mag = abs(c)
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


def substitute(p: Polynomial, images: dict[int, Polynomial]) -> Polynomial:
    """Replace variables by polynomials; indices absent from images stay fixed."""
    ring = p.ring
    for img in images.values():
        if img.ring != ring:
            raise RingError("substitution image from wrong ring")
    powers: dict[tuple[int, int], Polynomial] = {}
    acc: dict = {}
    for exps, c in p.terms:
        fixed = tuple(0 if i in images else e for i, e in enumerate(exps))
        term = ring.monomial(fixed, c)
        for i, e in enumerate(exps):
            if e and i in images:
                if (i, e) not in powers:
                    powers[i, e] = images[i] ** e
                term = term * powers[i, e]
        for key, k in term.terms:
            acc[key] = acc.get(key, Fraction(0)) + k
    return poly_from_terms(ring, acc.items())


class FreeElement:
    """Element of a free module R^s, stored as a vector of polynomials."""

    __slots__ = ("ring", "components", "_hash")

    def __init__(self, ring: RingContext, components: Sequence[Polynomial]):
        comps = tuple(components)
        for p in comps:
            if p.ring != ring:
                raise RingError("component from wrong ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("FreeElement is immutable")

    @property
    def rank(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def _check(self, other: "FreeElement") -> None:
        if self.ring != other.ring or self.rank != other.rank:
            raise RingError("rank or ring mismatch")

    def __add__(self, other: "FreeElement"):
        self._check(other)
        return FreeElement(self.ring, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "FreeElement"):
        self._check(other)
        return FreeElement(self.ring, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return FreeElement(self.ring, tuple(-a for a in self.components))

    def scale(self, f: Union[Polynomial, int, Fraction]) -> "FreeElement":
        return FreeElement(self.ring, tuple(p * f for p in self.components))

    def __eq__(self, other):
        return (
            isinstance(other, FreeElement)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, self.components))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        if self.rank == 1:
            return str(self.components[0])
        return "[" + ",".join(str(p) for p in self.components) + "]"

    def __repr__(self):
        return f"FreeElement({self})"


def unit_vector(ring: RingContext, rank: int, i: int) -> FreeElement:
    comps = [ring.zero()] * rank
    comps[i] = ring.one()
    return FreeElement(ring, comps)


class Submodule:
    """A finitely generated submodule of R^ambient_rank given by generators.

    The ordered generators are also the columns of an ambient_rank x g
    matrix, which is what transpose and mul act on.
    """

    __slots__ = ("ring", "ambient_rank", "generators", "_hash")

    def __init__(self, ring: RingContext, ambient_rank: int, generators: Sequence[FreeElement]):
        gens = tuple(g for g in generators)
        for g in gens:
            if g.ring != ring or g.rank != ambient_rank:
                raise RingError("generator does not match ambient module")
        if ambient_rank < 0:
            raise ValueError("negative rank")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("Submodule is immutable")

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.ring == other.ring
            and self.ambient_rank == other.ambient_rank
            and self.generators == other.generators
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, self.ambient_rank, self.generators))
            object.__setattr__(self, "_hash", h)
        return h

    def transpose(self) -> "Submodule":
        gens = self.generators
        cols = [
            FreeElement(self.ring, tuple(g.components[i] for g in gens))
            for i in range(self.ambient_rank)
        ]
        return Submodule(self.ring, len(gens), cols)

    def mul(self, other: "Submodule") -> "Submodule":
        """Matrix product: column j is sum_k other[k, j] * (generator k)."""
        if other.ambient_rank != len(self.generators):
            raise RingError("matrix shape mismatch")
        cols = []
        for bc in other.generators:
            acc = [self.ring.zero()] * self.ambient_rank
            for j, f in enumerate(bc.components):
                if f.is_zero():
                    continue
                for i, g in enumerate(self.generators[j].components):
                    if not g.is_zero():
                        acc[i] = acc[i] + g * f
            cols.append(FreeElement(self.ring, acc))
        return Submodule(self.ring, self.ambient_rank, cols)

    def __repr__(self):
        gens = "; ".join(str(g) for g in self.generators)
        return f"Submodule(rank={self.ambient_rank}: {gens})"


def ideal(ring: RingContext, polys: Iterable[Polynomial]) -> Submodule:
    """Ideals are rank-1 submodules."""
    return Submodule(ring, 1, [FreeElement(ring, (p,)) for p in polys])


def ideal_generators(I: Submodule) -> tuple[Polynomial, ...]:
    if I.ambient_rank != 1:
        raise RingError("not an ideal (ambient rank != 1)")
    return tuple(g.components[0] for g in I.generators)


def full_module(ring: RingContext, rank: int) -> Submodule:
    return Submodule(ring, rank, [unit_vector(ring, rank, i) for i in range(rank)])


def zero_module(ring: RingContext, rank: int) -> Submodule:
    return Submodule(ring, rank, [])
