"""The public names are the ones the library itself uses.

Every name in `primarydec.__all__` must be read somewhere in the package
outside `__init__.py` and outside its own definition, so that no function
or constant ships only for the tests.  Reference code that only the tests
need lives in `tests/oracles.py`.
"""

import ast
from pathlib import Path

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
