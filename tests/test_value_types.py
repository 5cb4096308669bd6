"""The value types keep the semantics they had as frozen dataclasses.

Each compares equal to an equal but distinct instance, hashes as the tuple
of its compared fields, shows the dataclass repr, refuses assignment and
deletion, and survives copy, deepcopy and pickle; the caches a ring and an
order fill (_memo, _units) take no part in any of it.  _Search, the one
type that changes during a run, stays mutable and unhashable, as before.
"""

import copy
import gc
import pickle
import weakref

import pytest

from primarydec import (
    Component,
    DecompositionResult,
    MonomialOrder,
    RingContext,
    Submodule,
    ValidationReport,
    buchberger,
    ideal,
    parse_script,
    primary_decomposition,
    validate_decomposition,
)
from primarydec.cli import Command, Script
from primarydec.decompose import _Search
from primarydec.polyring import TERM_OVER_POSITION, render_polynomial

FIELDS = {
    MonomialOrder: ("kind", "weights", "module_extension", "blocks"),
    RingContext: ("variables", "order"),
    _Search: ("shears", "schedule", "factored"),
    Component: ("module", "prime", "codim", "embedded", "witness_exponent", "hull_trace"),
    DecompositionResult: ("components",),
    ValidationReport: (
        "intersection_ok",
        "components_primary",
        "primes_distinct",
        "irredundant",
        "messages",
    ),
    Command: ("verb", "shown_input", "module", "extra_module", "file_arg"),
    Script: ("statements",),
    Submodule: ("ring", "ambient_rank", "generators"),
}

# the reprs of the values below as the dataclasses wrote them
REPRS = {
    MonomialOrder: "MonomialOrder(kind='block', weights=None, module_extension="
    "'term-over-position', blocks=((0,), (2,)))",
    RingContext: "RingContext(variables=('x', 'y'), order=MonomialOrder(kind='degrevlex', "
    "weights=(3, 1), module_extension='position-over-term', blocks=None))",
    _Search: "_Search(shears=2, schedule=(1, -1), factored={})",
    Component: "Component(module=Submodule(rank=1: y^2; x*y; x^2), prime=Submodule(rank=1: "
    "y; x), codim=2, embedded=True, witness_exponent=2, hull_trace=((1, Submodule(rank=1: "
    "y; x)), (2, Submodule(rank=1: y^2; x*y; x^2))))",
    DecompositionResult: "DecompositionResult(components=(Component(module=Submodule(rank=1: "
    "x), prime=Submodule(rank=1: x), codim=1, embedded=False, witness_exponent=1, "
    "hull_trace=((1, Submodule(rank=1: x)),)), Component(module=Submodule(rank=1: y^2; x*y; "
    "x^2), prime=Submodule(rank=1: y; x), codim=2, embedded=True, witness_exponent=2, "
    "hull_trace=((1, Submodule(rank=1: y; x)), (2, Submodule(rank=1: y^2; x*y; x^2))))))",
    ValidationReport: "ValidationReport(intersection_ok=False, components_primary=True, "
    "primes_distinct=True, irredundant=True, messages=('components do not intersect to "
    "the input',))",
    Command: "Command(verb='localize', shown_input='I, I', module=Submodule(rank=1: x^2; "
    "x*y), extra_module=Submodule(rank=1: x^2; x*y), file_arg=None)",
    Script: "Script(statements=(Command(verb='localize', shown_input='I, I', "
    "module=Submodule(rank=1: x^2; x*y), extra_module=Submodule(rank=1: x^2; x*y), "
    "file_arg=None),))",
    Submodule: "Submodule(rank=1: x^2; x*y)",
}

FROZEN = [t for t in FIELDS if t is not _Search]


def build(kind):
    """A value of kind, made afresh on each call, rings included."""
    R = RingContext(("x", "y"), MonomialOrder(weights=(3, 1)))
    x, y = R.variable(0), R.variable(1)
    I = ideal(R, [x**2, x * y])
    if kind is MonomialOrder:
        return MonomialOrder("block", blocks=((0,), (2,)), module_extension=TERM_OVER_POSITION)
    if kind in (RingContext, Submodule):
        return R if kind is RingContext else I
    if kind is _Search:
        return _Search(2, (1, -1))
    if kind in (Command, Script):
        script = parse_script("ring r = 0, (x, y), dp;\nideal I = x^2, x*y;\nlocalize I, I;\n")
        return script if kind is Script else script.statements[0]
    result = primary_decomposition(I)
    if kind is ValidationReport:
        return validate_decomposition(I, result.components[:1])
    return result if kind is DecompositionResult else result.components[1]


def fields(value):
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


@pytest.mark.parametrize("kind", FIELDS, ids=lambda t: t.__name__)
def test_equal_values_compare_equal_and_show_as_before(kind):
    a, b = build(kind), build(kind)
    assert a is not b
    assert a == b and not a != b
    assert a != 0 and not a == 0
    assert repr(a) == repr(b) == REPRS[kind]


@pytest.mark.parametrize("kind", FROZEN, ids=lambda t: t.__name__)
def test_a_frozen_value_hashes_as_its_field_tuple_and_refuses_changes(kind):
    a = build(kind)
    assert hash(a) == hash(fields(a)) == hash(build(kind))
    assert len({a, build(kind)}) == 1
    for name in FIELDS[kind]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.other = 1


def test_a_search_changes_has_no_hash_and_a_sheared_one_shares_its_factorizations():
    search = _Search(2)
    search.shears -= 1
    assert search.shears == 1
    with pytest.raises(TypeError):
        hash(search)
    sheared = search._replace(shears=0)
    assert sheared.shears == 0 and search.shears == 1
    assert sheared.schedule == search.schedule
    assert sheared.factored is search.factored
    assert _Search(2).factored is not _Search(2).factored


@pytest.mark.parametrize("kind", FIELDS, ids=lambda t: t.__name__)
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal(kind, duplicate):
    a = build(kind)
    b = duplicate(a)
    assert b == a and repr(b) == repr(a)
    assert type(b) is kind


def test_caches_stay_out_of_equality_hash_repr_and_copies():
    R = build(RingContext)
    # made afresh, with no element: no unit key is derived yet
    fresh = RingContext(("x", "y"), MonomialOrder(weights=(3, 1)))
    x, y = R.variable(0), R.variable(1)
    buchberger(ideal(R, [x**2 - y, x * y]))
    assert R._memo is not None and R.order._units
    assert fresh._memo is None and not fresh.order._units
    assert R == fresh and hash(R) == hash(fresh) and repr(R) == repr(fresh)
    assert R.order == fresh.order and hash(R.order) == hash(fresh.order)
    for duplicate in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        other = duplicate(R)
        assert other == R and other._memo is None and other.order._units == {}


def test_a_ring_can_be_weakly_referenced():
    R = build(RingContext)
    ref = weakref.ref(R)
    assert ref() is R
    del R
    gc.collect()
    assert ref() is None


def test_list_arguments_are_kept_as_tuples():
    assert RingContext(["x", "y"]) == RingContext(("x", "y"))
    weighted = MonomialOrder(weights=[3, 1, 2])
    assert weighted == MonomialOrder(weights=(3, 1, 2)) and weighted.weights == (3, 1, 2)
    block = MonomialOrder("block", blocks=[[0], [1]])
    assert block == MonomialOrder("block", blocks=((0,), (1,)))
    assert block.blocks == ((0,), (1,))
    assert len({weighted, block, MonomialOrder(weights=(3, 1, 2))}) == 2

    def decomposition(variables, order):
        R = RingContext(variables, order)
        x, y, z = (R.variable(i) for i in range(3))
        result = primary_decomposition(ideal(R, [x**2 * y, x * z**2, y * z * (x - 1)]))
        return [
            (sorted(map(render_polynomial, C.prime.generators)), C.codim, C.embedded)
            for C in result.components
        ]

    for as_lists, as_tuples in [
        (MonomialOrder(weights=[3, 1, 2]), MonomialOrder(weights=(3, 1, 2))),
        (MonomialOrder("block", blocks=[[0], [2]]), MonomialOrder("block", blocks=((0,), (2,)))),
    ]:
        expected = decomposition(("x", "y", "z"), as_tuples)
        assert decomposition(["x", "y", "z"], as_lists) == expected
