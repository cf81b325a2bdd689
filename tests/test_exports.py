import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import moellerlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(moellerlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"moellerlab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"moellerlab.{name}.__all__ names missing attributes: {missing}"


SOURCES = [p for p in Path(moellerlab.__file__).parent.glob("*.py") if p.name != "__init__.py"]
# exported names that no module reads, each kept for a reason
UNREAD_EXPORTS = {
    "symmetrize": "tests build the symmetrized first-order ends of a chain through it",
    "verify_intertwine": "the step-level law that the tests hold each Moller step to",
}


def _read_names():
    """Every name a module of the package reads, as an ast.Name or an ast.Attribute."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_reader(name):
    mod = importlib.import_module(f"moellerlab.{name}")
    unread = set(getattr(mod, "__all__", ())) - _read_names() - UNREAD_EXPORTS.keys()
    assert not unread, f"moellerlab.{name}.__all__ names no module reads: {sorted(unread)}"
