"""Free resolutions, Ext modules against the ring, and the hull of a module.

A submodule M of F = R^s presents M' = F/M.  The codimension-c part of M' is
controlled by Ext^c(M', R): the minimal primes of codimension c of its
annihilator are the associated primes of codimension c, and the kernel of the
canonical map from M' into the double Ext at c = codim(M') is exactly the
intersection of the primary components of minimal codimension, pulled back
to F.  Neither depends on the free resolution used (Eisenbud-Huneke-
Vasconcelos), so resolutions here are the plain syzygy chain, not minimal.
The hull needs no Ext module when F/M is zero dimensional or M is an ideal of
height c with c generators in its reduced Groebner basis: F/M is unmixed then,
and M is its own hull.
The decomposition computes one hull here, that of its input, and reads the
associated primes off the Ext annihilators; its witness loop, where F/N has a
single minimal prime, contracts N by lead coefficients instead
(`decompose.primary_component`).
"""

from __future__ import annotations

from .groebner import (
    annihilator,
    buchberger,
    canonical,
    codim,
    krull_dim,
    lift,
    modulo_kernel,
    reduce_columns,
    syzygies,
)
from .polyring import Submodule, ideal


class HomologyError(ValueError):
    """The requested homological construction is not defined for the input."""


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------


def free_resolution(M: Submodule, length: int) -> list[Submodule]:
    """Maps F_{k+1} -> F_k as matrices (generators are the columns).

    maps[0] = canonical(M) presents M inside F and maps[k + 1] =
    syzygies(maps[k]).  This is the plain syzygy chain, not a minimal
    resolution: Ext modules and the hull do not depend on the choice.
    """
    if length < 1:
        raise ValueError("resolution length must be positive")
    maps = [canonical(M)]
    for _k in range(1, length):
        maps.append(syzygies(maps[-1]))
    return maps


# ---------------------------------------------------------------------------
# Ext modules
# ---------------------------------------------------------------------------


def _ext_cycles(c: int, M: Submodule) -> tuple[list[Submodule], Submodule]:
    """Transposed resolution maps t of F/M and the cycles K = ker t[c].

    For c >= 1 the columns of K are reduced modulo im t[c-1], and those lying
    in it are dropped, so an empty K means Ext^c(F/M, R) = 0.
    """
    t = [m.transpose() for m in free_resolution(M, c + 1)]
    K = syzygies(t[c])
    if c >= 1:
        K = reduce_columns(K, buchberger(t[c - 1]))
    return t, K


def ext_module(c: int, M: Submodule) -> Submodule:
    """Annihilator of Ext^c(F/M, R), canonical; the unit ideal when Ext vanishes."""
    ring = M.ring
    if c < 0:
        raise ValueError("negative cohomological degree")
    t, K = _ext_cycles(c, M)
    if K.generators:
        pres = modulo_kernel(K, t[c - 1]) if c >= 1 else syzygies(K)
        if not buchberger(pres).is_full():
            return canonical(annihilator(pres))
    return canonical(ideal(ring, [ring.one()]))


# ---------------------------------------------------------------------------
# the canonical map into the double Ext
# ---------------------------------------------------------------------------


def canon_map(M: Submodule) -> Submodule:
    """Preimage in F of the kernel of F/M -> Ext^c(Ext^c(F/M, R), R), c = codim.

    When F/M is zero dimensional, or M is an ideal of height c with a
    c-element basis, this is the reduced Groebner basis of M, and no Ext is
    computed.
    """
    ring = M.ring
    G = buchberger(M)
    if G.is_full():
        raise HomologyError("module equals its ambient free module")
    c = ring.n - krull_dim(G)
    # Zero-dimensional F/M has only maximal, hence minimal, associated primes; a
    # height-c ideal with c generators is unmixed (Macaulay).  Either way M is its hull.
    if c == ring.n or (M.ambient_rank == 1 and len(G.generators) == c):
        return G.module
    t, K = _ext_cycles(c, G.module)
    if not K.generators:
        raise HomologyError("vanishing Ext at the codimension of the module")
    if c == 0:
        return syzygies(K.transpose())
    gmaps = free_resolution(modulo_kernel(K, t[c - 1]), c)
    cur = K
    for i in range(1, c + 1):
        cur = lift(t[c - i], cur.mul(gmaps[i - 1]))
    return modulo_kernel(cur.transpose(), gmaps[c - 1].transpose())


def equidim_hull(M: Submodule) -> Submodule:
    """Intersection of the primary components of minimal codimension, by the
    double Ext (`canon_map`)."""
    return canonical(canon_map(M))


def ass_prim_codim(M: Submodule, c: int) -> Submodule:
    """ann Ext^c(F/M, R) when its codim is c, else the unit ideal.

    Its codim is at least c; `decompose.codim_associated_primes` reads the
    codim-c associated primes of F/M off it.  A vanishing Ext gives the unit
    ideal, of codim n + 1, so the codim test covers it.
    """
    I_c = ext_module(c, M)
    if codim(I_c) != c:
        ring = M.ring
        return canonical(ideal(ring, [ring.one()]))
    return I_c
