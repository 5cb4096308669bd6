"""The library entry points that the benchmark harness calls.

`perfbench/tracer.py` wraps every function in its `LAYERS` table and fails a
traced run when one is missing; `perfbench/case.py` calls `parse_script`,
`run_script`, `primary_decomposition` and `min_ass` with fixed keywords and
filters script statements by `cli.Command`, and renders a generator's
`components` with `render_polynomial`; `perfbench/run.py` fails a traced
run when a function in its `EXERCISED` table records no call on its workload.
These tests fail when a change to the library would break any of them,
instead of the benchmark failing later.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import primarydec
from primarydec import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    layers = _tracer_module().LAYERS
    assert layers
    for layer, fns in layers.items():
        home = importlib.import_module(f"primarydec.{layer}")
        for fn in fns:
            assert callable(getattr(home, fn, None)), f"primarydec.{layer}.{fn}"


def test_tracer_installs_and_records_calls():
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        R = primarydec.RingContext(("x", "y"))
        x, y = R.variable(0), R.variable(1)
        primarydec.min_ass(primarydec.ideal(R, [x * y, x * x]), seed=0)
    finally:
        tracer.uninstall()
    assert tracer.calls["decompose.min_ass"] == 1
    assert tracer.calls["groebner.buchberger"] > 0


def test_harness_keywords_bind():
    R = primarydec.RingContext(("x", "y"))
    I = primarydec.ideal(R, [R.variable(0)])
    script = cli.parse_script("ring r=0,(x,y),dp; ideal I = x; primdec I;")
    inspect.signature(primarydec.min_ass).bind(I, seed=0)
    inspect.signature(primarydec.primary_decomposition).bind(I, bound=50, seed=0)
    inspect.signature(cli.run_script).bind(script, bound=50, seed=0, base_dir=Path())
    inspect.signature(cli.render_json).bind([])
    for name in ("canonical", "render_polynomial"):
        assert callable(getattr(primarydec, name))


def test_rendered_generators_read_components_as_the_harness_does():
    # perfbench/case.py renders an ideal's generator g as
    # render_polynomial(g.components[0]) and a module's component-wise
    R = primarydec.RingContext(("x", "y"))
    x, y = R.variable(0), R.variable(1)
    p = x * y - 1
    (g,) = primarydec.ideal(R, [p]).generators
    for f in (p, g):
        assert f.components == (f,)
        assert primarydec.render_polynomial(f.components[0]) == "x*y - 1"
    v = primarydec.FreeElement(R, (p, y))
    assert [primarydec.render_polynomial(c) for c in v.components] == ["x*y - 1", "y"]


def test_script_statements_are_commands():
    script = cli.parse_script("ring r=0,(x,y),dp; ideal I = x; minass I;")
    commands = [s for s in script.statements if isinstance(s, cli.Command)]
    assert len(commands) == 1
    assert commands[0].verb == "minass"
    assert commands[0].module.ambient_rank == 1


@pytest.mark.parametrize("workload", ["cli", "points", "minass"])
def test_traced_workload_calls_every_exercised_function(monkeypatch, workload):
    # run.py fails a traced run when a function in EXERCISED records no call;
    # the cases run in this process, each called the way case.py calls it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    corpus = importlib.import_module("corpus")
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        for case in corpus.cases(workload, 0):
            if case.fixture:
                path = PERFBENCH.parent / case.fixture
                source, base_dir = path.read_text(), path.parent
            else:
                source, base_dir = case.script, PERFBENCH.parent
            script = cli.parse_script(source)
            module = next(s for s in script.statements if isinstance(s, cli.Command)).module
            if case.mode == "cli":
                cli.render_json(cli.run_script(script, bound=50, seed=0, base_dir=base_dir))
            elif case.mode == "primdec":
                primarydec.primary_decomposition(module, bound=50, seed=0)
            else:
                assert case.mode == "minass"
                primarydec.min_ass(module, seed=0)
    finally:
        tracer.uninstall()
    silent = [name for name in run.EXERCISED[workload] if not tracer.calls[name]]
    assert not silent, f"no calls recorded on {workload} for: {', '.join(silent)}"
