"""Outside-in tracing of primarydec's public functions, for the traced run.

Each listed function is replaced by a wrapper in every primarydec module
namespace that bound it (``decompose``, ``homology``, ``verify`` and ``cli``
import names directly, and the package re-exports them), so calls between
modules and within one module are both seen. Nothing under ``src/`` changes.

A wrapper counts calls when they start, so calls still running when a case
is stopped at its deadline count too. It adds up the self time of each call:
its CPU time minus the part covered by wrapped calls it made. A layer's self
time is the sum over its functions. Three counters look into the work:

- ``groebner.buchberger.repeats``: calls whose input equals one already seen
  in this process, which the library's own caches can answer;
- ``decompose.primary_component.exponents_tried``: the sum of ``len(hull_trace)``;
- ``decompose.min_ass.buchberger_calls``: buchberger calls made inside min_ass.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = {
    "groebner": (
        "buchberger",
        "syzygies",
        "lift",
        "modulo_kernel",
        "intersect",
        "saturate",
        "quotient",
        "eliminate",
    ),
    "homology": (
        "canon_map",
        "ext_module",
        "free_resolution",
        "equidim_hull",
        "ass_prim_codim",
    ),
    "decompose": (
        "primary_decomposition",
        "primary_component",
        "localize_module",
        "min_ass",
    ),
    "unifactor": ("univariate_factor",),
    "verify": ("validate_decomposition",),
    "cli": ("parse_script", "render_json"),
}

COUNTERS = (
    "groebner.buchberger.repeats",
    "decompose.primary_component.exponents_tried",
    "decompose.min_ass.buchberger_calls",
)


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        # One entry per active wrapped call: time covered by its wrapped callees.
        self._stack: list[float] = []
        self._min_ass_depth = 0
        self._seen_gb_inputs: set = set()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            self._before(name, args)
            self.calls[name] += 1
            stack.append(0.0)
            t0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.thread_time() - t0
                covered = stack.pop()
                if stack:
                    stack[-1] += dt
                self.self_s[name] += dt - covered
                if name == "decompose.min_ass":
                    self._min_ass_depth -= 1
            if name == "decompose.primary_component":
                self.counters["decompose.primary_component.exponents_tried"] += len(result[2])
            return result

        return wrapper

    def _before(self, name: str, args) -> None:
        if name == "groebner.buchberger":
            if self._min_ass_depth:
                self.counters["decompose.min_ass.buchberger_calls"] += 1
            if args[0] in self._seen_gb_inputs:
                self.counters["groebner.buchberger.repeats"] += 1
            else:
                self._seen_gb_inputs.add(args[0])
        elif name == "decompose.min_ass":
            self._min_ass_depth += 1

    def install(self) -> None:
        """Wrap every listed function; raise if one is missing."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "primarydec" or key.startswith("primarydec.")
        ]
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"primarydec.{layer}")
            if home is None:
                raise RuntimeError(f"primarydec.{layer} is not imported")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    raise RuntimeError(f"primarydec.{layer}.{fn_name} is missing")
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def report(self, scale: float = 1.0) -> dict:
        """Counts and self times; self times are multiplied by ``scale``."""
        out = {}
        for name in function_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name] * scale
        for name in COUNTERS:
            out[name] = self.counters[name]
        return out
