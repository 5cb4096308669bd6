"""Free resolutions, Ext modules against the ring, and the hull of a module.

A submodule M of F = R^s presents M' = F/M.  The codimension-c part of M' is
controlled by Ext^c(M', R): the minimal primes of codimension c of its
annihilator are the associated primes of codimension c, and the kernel of the
canonical map from M' into the double Ext at c = codim(M') is exactly the
intersection of the primary components of minimal codimension, pulled back
to F.
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
from .polyring import (
    FreeElement,
    Polynomial,
    RingContext,
    Submodule,
    ideal,
)


class HomologyError(ValueError):
    """The requested homological construction is not defined for the input."""


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------


def _to_grid(m: Submodule) -> list[list[Polynomial]]:
    cols = [g.components for g in m.generators]
    return [[col[i] for col in cols] for i in range(m.ambient_rank)]


def _from_grid(ring: RingContext, grid: list[list[Polynomial]], nrows: int) -> Submodule:
    ncols = len(grid[0]) if grid else 0
    cols = [
        FreeElement(ring, tuple(grid[i][j] for i in range(nrows)))
        for j in range(ncols)
    ]
    return Submodule(ring, nrows, cols)


def _find_constant(grid) -> tuple[int, int] | None:
    for i, row in enumerate(grid):
        for j, p in enumerate(row):
            if not p.is_zero() and p.is_constant():
                return i, j
    return None


def _eliminate(grids, k, i0, j0):
    """Split off the unit entry c = P[i0][j0] of P = grids[k].

    Only the Schur complement P[i][j] - P[i][j0] * P[i0][j] / c is computed.
    The row and column operations that clear row i0 and column j0, and the
    matching updates of column i0 of grids[k-1] and row j0 of grids[k+1],
    change nothing else, and all of those entries are dropped here.
    """
    P = grids[k]
    inv = 1 / P[i0][j0].constant_value()
    lams = [(j, p * inv) for j, p in enumerate(P[i0]) if j != j0 and not p.is_zero()]
    for i, row in enumerate(P):
        if i != i0 and not row[j0].is_zero():
            for j, lam in lams:
                row[j] = row[j] - lam * row[j0]
    del P[i0]
    for grid, col in ((P, j0), (grids[k - 1], i0)):
        for row in grid:
            del row[col]
    if k + 1 < len(grids) and grids[k + 1]:
        del grids[k + 1][j0]


def _prune(grids) -> None:
    while True:
        for k in range(1, len(grids)):
            spot = _find_constant(grids[k])
            if spot is not None:
                _eliminate(grids, k, *spot)
                break
        else:
            return


def free_resolution(M: Submodule, length: int) -> list[Submodule]:
    """Maps F_{k+1} -> F_k as matrices (generators are the columns).

    maps[0] presents M inside F.
    """
    if length < 1:
        raise ValueError("resolution length must be positive")
    first = canonical(M)
    ring = first.ring
    maps = [first]
    for _k in range(1, length):
        maps.append(syzygies(maps[-1]))
    grids = [_to_grid(m) for m in maps]
    _prune(grids)
    out = []
    nrows = first.ambient_rank
    for g in grids:
        m = _from_grid(ring, g, len(g)) if g else Submodule(ring, nrows, [])
        out.append(m)
        nrows = len(m.generators)
    return out


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
        grid = _to_grid(pres)
        _prune([[], grid])  # empty neighbour slot, skipped by _eliminate
        if grid:
            pruned = _from_grid(ring, grid, len(grid))
            if not buchberger(pruned).is_full():
                return canonical(annihilator(pruned))
    return canonical(ideal(ring, [ring.one()]))


# ---------------------------------------------------------------------------
# the canonical map into the double Ext
# ---------------------------------------------------------------------------


def canon_map(M: Submodule) -> Submodule:
    """Preimage in F of the kernel of F/M -> Ext^c(Ext^c(F/M, R), R), c = codim."""
    ring = M.ring
    G = buchberger(M)
    if G.is_full():
        raise HomologyError("module equals its ambient free module")
    c = ring.n - krull_dim(G)
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
    """Intersection of the primary components of minimal codimension."""
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
