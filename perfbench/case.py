"""Run one benchmark case in this fresh interpreter.

Usage: python3 perfbench/case.py '<case spec as JSON>'

The spec is written by run.py. The process prints two JSON lines on stdout:
``{"ready": t}`` once the interpreter is up, primarydec is imported and the
script is parsed, and then the result: the solve time, the rendered answer
and, when tracing, the per-function counters.

Times are CPU time of this process scaled to the host's reference speed (see
``HostProbe``): ``t`` is the set-up time from process start to ready, and the
solve time covers the one library call. The solve's unscaled CPU time is
reported too.

The process never touches the library's caches: it is fresh, so they start
empty.
"""

import gc
import json
import os
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# CPU time of one ``_probe_unit`` at full speed on the machine in README.md.
PROBE_REF_S = 2.9e-4
# CPU time between two probes during the timed call.
PROBE_EVERY_S = 0.05
# Probe units run back to back just before and just after the timed call.
PROBE_EDGE_UNITS = 10


def _probe_unit():
    """Fixed pure-Python work of the kinds the library does: ints, Fractions, dicts."""
    table = {}
    q = 12345
    acc = Fraction(0)
    for i in range(400):
        q = (q * 1103515245 + 12345) % 2147483648
        key = (i & 15, q & 7)
        table[key] = table.get(key, 0) + q
        if i % 8 == 0:
            acc += Fraction(q & 255, (q >> 8 & 255) + 1)
    return acc, len(table)


class HostProbe:
    """Measures how fast the host runs fixed work over the timed interval.

    On a shared virtual machine the same work was measured to take 1.3 to 2
    times as long in CPU time, not only in wall time, in phases that lasted
    from seconds to minutes, so a CPU time says as much about the host as
    about the code. The probe times ``_probe_unit`` just before the timed
    call, just after it, and every ``PROBE_EVERY_S`` of CPU time during it
    (on SIGPROF). A CPU time times ``scale`` is what it would have been at the
    probe's reference speed. ``spent`` is the probe's own CPU time inside the
    timed call, which the caller subtracts.
    """

    # Clocks are read with thread_time(): while ITIMER_PROF is armed, Linux
    # reads the process-wide CPU clock only to the resolution of a tick.

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, units: int = 1) -> float:
        # A garbage collection started by the probe's allocations would time
        # the library's heap, not the host.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.thread_time()
        for _ in range(units):
            _probe_unit()
        dt = time.thread_time() - t0
        if collecting:
            gc.enable()
        self.samples.append(dt / units)
        self.spent += dt
        return dt / units

    def start(self) -> float:
        """Probe once; start probing on SIGPROF. Returns the first probe's scale."""
        first = self.sample(PROBE_EDGE_UNITS)
        self.spent = 0.0
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return PROBE_REF_S / first

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.sample(PROBE_EDGE_UNITS)

    def scale(self) -> float:
        return PROBE_REF_S / statistics.fmean(self.samples)


def _rendered(A, primarydec):
    """Reduced Groebner generators of an ideal or a module as sorted strings."""
    render = primarydec.render_polynomial
    gens = primarydec.canonical(A).generators
    if A.ambient_rank == 1:
        return sorted(render(g.components[0]) for g in gens)
    return sorted([render(p) for p in g.components] for g in gens)


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import primarydec
    from primarydec import cli

    if not Path(primarydec.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported primarydec from {primarydec.__file__}, not from src/")

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if spec["fixture"]:
        script_path = ROOT / spec["fixture"]
        source = script_path.read_text()
        base_dir = script_path.parent
    else:
        source = spec["script"]
        base_dir = ROOT
    # Called through the module so that the tracer's wrappers are seen.
    script = cli.parse_script(source)
    commands = [s for s in script.statements if isinstance(s, cli.Command)]
    ready_s = time.thread_time()
    probe = HostProbe()
    scale = probe.start()
    print(json.dumps({"ready": ready_s * scale}), flush=True)

    def on_deadline(signum, frame):
        # Calls still running now are counted, but not their time.
        report = None if tracer is None else tracer.report(probe.scale())
        print(json.dumps({"deadline": True, "trace": report}), flush=True)
        os._exit(3)

    signal.signal(signal.SIGTERM, on_deadline)

    mode = spec["mode"]
    t0 = time.thread_time()
    if mode == "cli":
        result = cli.render_json(cli.run_script(script, bound=50, seed=0, base_dir=base_dir))
    elif mode == "primdec":
        result = primarydec.primary_decomposition(commands[0].module, bound=50, seed=0)
    elif mode == "minass":
        result = primarydec.min_ass(commands[0].module, seed=0)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    solve_cpu_s = time.thread_time() - t0 - probe.spent
    probe.stop()
    scale = probe.scale()

    # Everything below is outside the timed window and the trace.
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.report(scale)
    if mode == "cli":
        answer = result
    elif mode == "primdec":
        answer = {
            "components": sorted(_rendered(c.module, primarydec) for c in result.components),
            "primes": sorted(
                _rendered(c.prime, primarydec) for c in result.components if not c.embedded
            ),
            "embedded": sum(c.embedded for c in result.components),
        }
    else:
        answer = {"primes": sorted(_rendered(P, primarydec) for P in result)}
    print(
        json.dumps(
            {
                "solve_s": solve_cpu_s * scale,
                "solve_cpu_s": solve_cpu_s,
                "probes": len(probe.samples),
                "answer": answer,
                "trace": trace,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
