import json
import random
from itertools import combinations_with_replacement
from pathlib import Path

from primarydec import homology
from primarydec.cli import Command, parse_polynomial, parse_script
from primarydec.groebner import (
    buchberger,
    canonical,
    codim,
    intersect_many,
    is_sub,
    is_unit_ideal,
    lift,
    module_equal,
    modulo_kernel,
    reduce_columns,
    syzygies,
)
from primarydec.homology import (
    HomologyError,
    ass_prim_codim,
    canon_map,
    equidim_hull,
    ext_module,
    free_resolution,
)
from primarydec.polyring import (
    FreeElement,
    MonomialOrder,
    RingContext,
    Submodule,
    ideal,
    render_polynomial,
)

import pytest


FIXTURES = Path(__file__).parent / "fixtures"

# the fixtures whose scripts run ``primdec``
PRIMDEC_FIXTURES = [
    "embedded_line",
    "module_rank3",
    "parabola",
    "quadratic_points",
    "three_monomials",
]


def ring2() -> RingContext:
    return RingContext(("x", "y"), MonomialOrder(kind="degrevlex"))


def ring3() -> RingContext:
    return RingContext(("x", "y", "z"), MonomialOrder(kind="degrevlex"))


def gens_text(A: Submodule) -> list[str]:
    out = []
    for g in canonical(A).generators:
        out.append(tuple(render_polynomial(p) for p in g.components))
    return sorted(out)


def ideal_text(A: Submodule) -> list[str]:
    return sorted(render_polynomial(g.components[0]) for g in canonical(A).generators)


def test_resolution_shape_and_exactness():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x * x, x * y])
    maps = free_resolution(I, 3)
    assert len(maps) == 3
    assert module_equal(maps[0], I)
    for k in range(len(maps) - 1):
        if maps[k].generators and maps[k + 1].generators:
            assert maps[k].mul(maps[k + 1]).is_zero()
    # exactness at F_1: the columns of maps[1] generate all relations
    assert module_equal(maps[1], syzygies(maps[0]))


def test_resolution_module_input_exact():
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    zero = R.zero()
    M = Submodule(
        R,
        3,
        [
            FreeElement(R, (x * y, zero, y * z)),
            FreeElement(R, (zero, x * z, z * z)),
        ],
    )
    maps = free_resolution(M, 3)
    assert module_equal(maps[0], M)
    for k in range(len(maps) - 1):
        if maps[k].generators and maps[k + 1].generators:
            assert maps[k].mul(maps[k + 1]).is_zero()
        assert module_equal(maps[k + 1], syzygies(maps[k]))


def test_resolution_of_zero_module():
    R = ring2()
    Z = Submodule(R, 1, [])
    maps = free_resolution(Z, 2)
    assert maps[0].ambient_rank == 1 and not maps[0].generators


def test_ext_vanishing_below_codim():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    m = ideal(R, [x, y])
    assert is_unit_ideal(ext_module(0, m))
    assert is_unit_ideal(ext_module(1, m))
    E2 = ext_module(2, m)
    assert not is_unit_ideal(E2)
    assert ideal_text(E2) == ["x", "y"]


def test_ext_annihilators_known():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x * x, x * y])
    E1 = ext_module(1, I)
    assert not is_unit_ideal(E1)
    assert ideal_text(E1) == ["x"]
    E2 = ext_module(2, I)
    assert not is_unit_ideal(E2)
    assert ideal_text(E2) == ["x", "y"]


def test_ext_zero_of_free_part():
    R = ring2()
    x = R.variable(0)
    zero = R.zero()
    one = R.one()
    M = Submodule(R, 2, [FreeElement(R, (x, zero))])
    E0 = ext_module(0, M)
    assert not is_unit_ideal(E0)
    # the quotient has a free summand, so Ext^0 is faithful
    assert E0.generators == ()
    # and for an ideal with no free part Ext^0 vanishes
    assert is_unit_ideal(ext_module(0, ideal(R, [x])))
    assert not is_unit_ideal(ext_module(1, ideal(R, [x])))
    del one


def test_hull_strips_embedded_component():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x * x, x * y])
    assert ideal_text(equidim_hull(I)) == ["x"]


def test_hull_fixes_unmixed_inputs():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    for gens in ([x, y], [x * x, x * y, y * y], [x * y], [x * x]):
        I = ideal(R, gens)
        assert module_equal(equidim_hull(I), I)


def test_hull_of_zero_ideal():
    R = ring2()
    Z = Submodule(R, 1, [])
    assert canonical(equidim_hull(Z)).generators == ()


def test_hull_module_free_summand():
    R = ring2()
    x = R.variable(0)
    zero = R.zero()
    M = Submodule(R, 2, [FreeElement(R, (x, zero))])
    H = equidim_hull(M)
    assert gens_text(H) == [("1", "0")]


def test_hull_module_with_unit_entry():
    R = ring2()
    x = R.variable(0)
    zero, one = R.zero(), R.one()
    M = Submodule(R, 2, [FreeElement(R, (one, zero)), FreeElement(R, (zero, x))])
    assert module_equal(equidim_hull(M), M)


def test_hull_rejects_full_module():
    R = ring2()
    with pytest.raises(HomologyError):
        canon_map(ideal(R, [R.one()]))


def test_ass_prim_codim_values():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x * x, x * y])
    assert ideal_text(ass_prim_codim(I, 1)) == ["x"]
    assert ideal_text(ass_prim_codim(I, 2)) == ["x", "y"]
    assert ideal_text(ass_prim_codim(ideal(R, [x, y]), 1)) == ["1"]
    assert ideal_text(ass_prim_codim(ideal(R, [x * y]), 1)) == ["x*y"]


def random_monomial_ideal(R: RingContext, rng: random.Random) -> Submodule:
    n = R.n
    gens = []
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        if all(e == 0 for e in exps):
            exps = (1,) + (0,) * (n - 1)
        gens.append(R.monomial(exps))
    return ideal(R, gens)


def test_ext_grade_property_random_monomials():
    rng = random.Random(7)
    R = ring3()
    for _ in range(25):
        I = random_monomial_ideal(R, rng)
        c = codim(I)
        E = ext_module(c, I)
        assert not is_unit_ideal(E)
        assert codim(E) == c
        for b in range(0, c):
            Eb = ext_module(b, I)
            if not is_unit_ideal(Eb):
                assert codim(Eb) >= b
        H = equidim_hull(I)
        assert is_sub(I, H)
        assert codim(H) == c


def test_hull_of_module_contains_module():
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    zero = R.zero()
    M = Submodule(
        R,
        3,
        [
            FreeElement(R, (x * y, zero, y * z)),
            FreeElement(R, (zero, x * z, z * z)),
        ],
    )
    H = equidim_hull(M)
    assert is_sub(M, H)
    assert codim(H) == codim(M)


def _component(ring: RingContext, rank: int, gens) -> Submodule:
    vectors = []
    for g in gens:
        comps = [g] if isinstance(g, str) else g
        vectors.append(
            FreeElement(ring, tuple(parse_polynomial(ring, c) for c in comps))
        )
    return Submodule(ring, rank, vectors)


@pytest.mark.parametrize("name", PRIMDEC_FIXTURES)
def test_hull_matches_fixture_components(name):
    # the hull is the intersection of the frozen components of least codim
    script = parse_script((FIXTURES / f"{name}.primdec").read_text())
    expected = json.loads((FIXTURES / f"{name}.expected.json").read_text())
    commands = [s for s in script.statements if isinstance(s, Command)]
    assert len(commands) == len(expected)
    checked = [(c, e) for c, e in zip(commands, expected) if c.verb == "primdec"]
    assert checked
    for cmd, entry in checked:
        M = cmd.module
        low = min(comp["codim"] for comp in entry["components"])
        top = [
            _component(M.ring, M.ambient_rank, comp["generators"])
            for comp in entry["components"]
            if comp["codim"] == low
        ]
        assert module_equal(equidim_hull(M), intersect_many(top))


PRUNE_INPUTS = {
    "binomial_cone": "x*y^2 - x*z, x^2*z - y*z, x*y*z",
    "unit_product": "x^2*y - z^2, y^3 - x*z, x*y*z - 1",
    "embedded_mix": "z^2*(x - 1)^2, x*y*(y - 1), x^3*z - z",
}


def _prune_inputs() -> list[Submodule]:
    mods = []
    for path in sorted(FIXTURES.glob("*.primdec")):
        for cmd in parse_script(path.read_text()).statements:
            if isinstance(cmd, Command):
                mods += [m for m in (cmd.module, cmd.extra_module) if m is not None]
    R = ring3()
    for text in PRUNE_INPUTS.values():
        mods.append(
            ideal(R, [parse_polynomial(R, g) for g in text.split(", ")])
        )
    return list(dict.fromkeys(canonical(m) for m in mods))


def test_resolution_is_the_plain_syzygy_chain():
    for M in _prune_inputs():
        n = M.ring.n
        maps = free_resolution(M, n + 1)
        assert len(maps) == n + 1
        assert maps[0] == canonical(M)
        for k in range(n):
            assert maps[k + 1] == syzygies(maps[k])
            # consecutive maps compose to zero
            if maps[k].generators and maps[k + 1].generators:
                assert maps[k].mul(maps[k + 1]).is_zero()


def _rendered(A: Submodule) -> list[list[str]]:
    return [[render_polynomial(p) for p in g.components] for g in A.generators]


def test_ext_and_hull_match_pins():
    # ext_module(c, M) for c = 0..n and equidim_hull(M), rendered, pinned from
    # pruned (minimal) resolutions: the plain syzygy chain must give the same
    pins = json.loads((FIXTURES / "ext_pins.json").read_text())
    mods = _prune_inputs()
    assert len(mods) == len(pins) == 10
    for M, pin in zip(mods, pins):
        assert list(M.ring.variables) == pin["variables"]
        assert _rendered(M) == pin["module"]
        ext = [_rendered(ext_module(c, M)) for c in range(M.ring.n + 1)]
        assert ext == pin["ext"]
        assert _rendered(equidim_hull(M)) == pin["hull"]


def _ext_path_hull(M: Submodule) -> Submodule:
    """The hull as the kernel of F/M -> Ext^c(Ext^c(F/M, R), R), always."""
    M = canonical(M)
    c = codim(M)
    t = [m.transpose() for m in free_resolution(M, c + 1)]
    K = syzygies(t[c])
    if c == 0:
        return canonical(syzygies(K.transpose()))
    K = reduce_columns(K, buchberger(t[c - 1]))
    gmaps = free_resolution(modulo_kernel(K, t[c - 1]), c)
    cur = K
    for i in range(1, c + 1):
        cur = lift(t[c - i], cur.mul(gmaps[i - 1]))
    return canonical(modulo_kernel(cur.transpose(), gmaps[c - 1].transpose()))


def _power_sum(A: Submodule, P: Submodule, m: int) -> Submodule:
    """A + P^m for ideals A and P."""
    R = A.ring
    powers = []
    for gens in combinations_with_replacement(P.generators, m):
        f = R.one()
        for g in gens:
            f *= g.components[0]
        powers.append(f)
    return ideal(R, [g.components[0] for g in A.generators] + powers)


def _random_zero_dim_rank2(rng: random.Random) -> Submodule:
    """Every generator lies in (x, y)F, so F/M is not zero, and each basis
    vector times a power of x and of y lies in M, so F/M has finite length."""
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    zero = R.zero()

    def poly():
        terms = [
            rng.randint(-3, 3) * x ** rng.randint(0, 2) * y ** rng.randint(1, 2)
            for _ in range(3)
        ]
        return sum(terms, zero)

    gens = []
    for i in range(2):
        for var in (x, y):
            f = var ** rng.randint(2, 3) + rng.randint(-2, 2) * var
            gens.append(FreeElement(R, (f, zero) if i == 0 else (zero, f)))
    gens.append(FreeElement(R, (poly(), poly())))
    return Submodule(R, 2, gens)


class _ExtCalled(Exception):
    pass


def _no_ext(monkeypatch):
    def refuse(c, M):
        raise _ExtCalled

    monkeypatch.setattr(homology, "_ext_cycles", refuse)


def test_hull_shortcut_agrees_with_the_ext_path(monkeypatch):
    # zero-dimensional inputs and ideals of height c with c generators are
    # their own hull, which canon_map returns without computing any Ext
    R = ring3()
    x, y, z = (R.variable(i) for i in range(3))
    cases = [
        M
        for M in _prune_inputs()
        if codim(M) == M.ring.n
        or (M.ambient_rank == 1 and len(M.generators) == codim(M))
    ]
    assert len(cases) == 4
    embedded_mix = ideal(R, [z * z * (x - 1) ** 2, x * y * (y - 1), x**3 * z - z])
    # its two embedded primes, the maximal ones, where the witness loop runs
    maximal = [
        ideal(R, [parse_polynomial(R, g) for g in gens])
        for gens in (("z", "y", "x^2 + x + 1"), ("z", "y - 1", "x^2 + x + 1"))
    ]
    cases += [_power_sum(embedded_mix, P, m) for P in maximal for m in (1, 2, 3)]
    rng = random.Random(18)
    drawn = [_random_zero_dim_rank2(rng) for _ in range(6)]
    assert all(codim(M) == 2 for M in drawn)
    cases += drawn
    expected = [_ext_path_hull(M) for M in cases]
    _no_ext(monkeypatch)
    for M, H in zip(cases, expected):
        assert equidim_hull(M) == H


def test_mixed_and_non_complete_intersection_ideals_take_the_ext_path(monkeypatch):
    R2 = ring2()
    x, y = R2.variable(0), R2.variable(1)
    R4 = RingContext(("x", "y", "z", "w"), MonomialOrder(kind="degrevlex"))
    a, b, c, d = (R4.variable(i) for i in range(4))
    twisted_cubic = ideal(R4, [a * c - b * b, b * d - c * c, a * d - b * c])
    mixed = ideal(R2, [x * x, x * y])
    assert _rendered(_ext_path_hull(mixed)) == [["x"]]
    assert _ext_path_hull(twisted_cubic) == canonical(twisted_cubic)
    _no_ext(monkeypatch)
    for M in (mixed, twisted_cubic):
        with pytest.raises(_ExtCalled):
            equidim_hull(M)
