"""The public names are the ones the library itself uses.

Every name in `primarydec.__all__` must be read somewhere in the package
outside `__init__.py` and outside its own definition, so that no function
or constant ships only for the tests.  Reference code that only the tests
need lives in `tests/oracles.py`.  The modules above the term layout
(`verify`, `homology`, `cli`, `unifactor`) use none of polyring's term-tuple
helpers.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import primarydec

PACKAGE = Path(primarydec.__file__).resolve().parent

# name -> why it stays public although the package never reads it
UNUSED_BY_DESIGN: dict[str, str] = {}


def _defines(node: ast.stmt) -> set:
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {getattr(node, "name", None)}


def _loaded_names() -> set[str]:
    """Names read in the package's modules, `__init__.py` left out, not
    counting a top-level definition's reads of its own name."""
    loaded = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = _defines(node)
            loaded |= {
                sub.id
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id not in own
            }
    return loaded


def test_every_public_name_is_used_by_the_package():
    # equality, not inclusion: an allow-list entry that went away or found a
    # caller is stale
    assert set(primarydec.__all__) - _loaded_names() == set(UNUSED_BY_DESIGN)


# the term layout (key, comp, exps, c) stays inside polyring, groebner and
# decompose's zero-dimensional step: these modules handle no term tuple
TERM_HELPERS = {"rekey", "from_terms", "_collect", "poly_from_terms"}
ABOVE_THE_TERMS = ("verify", "homology", "cli", "unifactor")


@pytest.mark.parametrize("module", ABOVE_THE_TERMS)
def test_modules_above_the_term_layout_use_no_term_helper(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert used & TERM_HELPERS == set()


# what importing the library and its command line must not pull in: the
# dataclasses chain (inspect, ast, dis, tokenize), argparse with gettext, and
# typing, each milliseconds of every cold start
HEAVY_AT_START = ("dataclasses", "inspect", "argparse", "typing")


def test_import_loads_no_heavy_standard_module():
    # -S: no site module, which on some installations imports typing itself
    code = (
        "import sys, primarydec, primarydec.cli\n"
        f"print(sorted(set({HEAVY_AT_START!r}) & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
