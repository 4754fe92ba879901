"""Module boundaries: no module imports another module's private names."""

import ast
from pathlib import Path

import boltzgas

PACKAGE_DIR = Path(boltzgas.__file__).parent


def private_imports(source):
    """Underscore names that ``source`` imports from the ``boltzgas`` package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            sibling = node.level > 0 or (node.module or "").split(".")[0] == "boltzgas"
            names = [alias.name for alias in node.names] if sibling else []
            if sibling and node.module:
                names += node.module.split(".")
        elif isinstance(node, ast.Import):
            names = [
                part
                for alias in node.names
                if alias.name.split(".")[0] == "boltzgas"
                for part in alias.name.split(".")
            ]
        else:
            continue
        found += [n for n in names if n.startswith("_") and not n.startswith("__")]
    return found


def test_detector_flags_private_names():
    assert private_imports("from .geometry import _vectors, gamma") == ["_vectors"]
    assert private_imports("from boltzgas.engine import _simulate as run") == [
        "_simulate"
    ]
    assert private_imports("from . import _hidden") == ["_hidden"]
    assert private_imports("import boltzgas._hidden") == ["_hidden"]
    assert private_imports("from .geometry import gamma\nfrom numpy import _x") == []
    assert private_imports("from . import __version__") == []


def test_no_module_imports_private_names_of_another():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 10
    offenders = {
        path.name: names
        for path in modules
        if (names := private_imports(path.read_text()))
    }
    assert offenders == {}
