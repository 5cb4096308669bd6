"""An independent check of primary decompositions.

The validator checks the defining properties of a primary decomposition
directly.  It tests each component for primality by contraction over Q(u),
u an independent set of the claimed prime (Gianni-Trager-Zacharias).  One
fold of the components checks their intersection, and the all-but-one
intersections of the irredundancy check are computed only at components
whose claimed prime contains another.

It shares with the code it checks the Groebner engine, `independent_sets`
and `lead_coefficients`, which read a basis, and `min_ass`, for primality.
It also shares the contraction rule: Q : h^infinity, h the product of the
K[u]-lead coefficients, is how the decomposition's witness loop computes
each hull (`decompose.primary_component`), so a wrong rule there could pass
here; the check applies it to the component itself, not to the loop's
input.  It shares no Ext module or localization, and its contraction runs no
GTZ recursion, linear form or coordinate shear: one saturation a component.
"""

from __future__ import annotations

from math import prod

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
    lead_coefficients,
    module_equal,
    saturate,
)
from .polyring import FreeElement, Submodule, _Value, full_module, ideal, ideal_generators


class ValidationReport(_Value):
    __slots__ = _fields = (
        "intersection_ok", "components_primary", "primes_distinct", "irredundant", "messages"
    )

    def __init__(self, intersection_ok, components_primary, primes_distinct, irredundant, messages):
        self._fill(intersection_ok, components_primary, primes_distinct, irredundant, messages)

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


def _in_radical(f: FreeElement, a: Submodule) -> bool:
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
    ch. 8) that shares the engine, `independent_sets` and `lead_coefficients`
    with the decomposition, `min_ass` for primality, and the contraction rule
    with its witness loop; the contraction runs no Ext module, hull, GTZ
    recursion, linear form or shear.  P is prime; the radical of
    a = ann(F/Q) is P, that is a lies in P and every generator of P in the
    radical of a; and Q = Q : h^infinity for h the product of the
    K[u]-lead coefficients of Q, u an independent set of P.  Then Q K[x_D]^s
    has radical P K[x_D], a maximal ideal, so it is primary, and Q is its
    contraction.  Conversely h lies outside a P-primary Q's one associated
    prime, so h is a nonzerodivisor on F/Q.
    """
    ring = Q.ring
    if min_ass(P, seed) != [canonical(P)]:
        return False
    a = annihilator(Q)
    if not is_sub(a, P) or not all(_in_radical(f, a) for f in ideal_generators(P)):
        return False
    u = set(independent_sets(P)[0])
    D = tuple(i for i in range(ring.n) if i not in u)
    coeffs = lead_coefficients(Q, D)
    h = prod(coeffs, start=ring.one())
    return not coeffs or module_equal(saturate(Q, ideal(ring, [h])), Q)


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
    # before[i] meets the first i components, starting from the free module
    # F, which intersect meets at no cost; before[k] is the whole meet
    F = full_module(Mc.ring, Mc.ambient_rank)
    qs = [q for q, _p in pairs]
    k = len(qs)
    before = [F]
    for q in qs:
        before.append(intersect(before[-1], q))
    intersection_ok = module_equal(before[k], Mc)
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
    # Component i is redundant when the others meet to M.  Once the components
    # meet to M and each is primary for its prime, that needs another claimed
    # prime inside P_i: the others' meet then lies in Q_i, so the product of
    # their annihilators lies in the prime P_i, and so do one of them and its
    # radical P_j (isolated components are unique; Atiyah-Macdonald 4.11).
    # This rests on the checks above, not on the engine's associated primes.
    # A tested component i is checked on before[i] cap after[i+1], after[i]
    # meeting the components from i on: at most 3k intersections in all.
    irredundant = True
    if k > 1:
        if intersection_ok and components_primary:
            bases = [buchberger(P) for P in canon_primes]
            tested = [
                i
                for i, G in enumerate(bases)
                if any(j != i and is_sub(Pj, G) for j, Pj in enumerate(canon_primes))
            ]
        else:
            tested = range(k)
        after = [F] * (k + 1)
        for i in range(k - 1, min(tested, default=k), -1):
            after[i] = intersect(qs[i], after[i + 1])
        for i in tested:
            if module_equal(intersect(before[i], after[i + 1]), Mc):
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
