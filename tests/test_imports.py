"""Module boundaries: no module imports another module's private names.

The demos and the benchmark harness run outside the test suite, so the
names they read from ``boltzgas`` are checked here to exist and be public,
and the keywords they pass to its callables to be parameters of them.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import boltzgas

PACKAGE_DIR = Path(boltzgas.__file__).parent
REPO_DIR = Path(__file__).resolve().parents[1]


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


def test_every_exported_name_resolves():
    # a deleted function can leave a stale __all__ entry that only a star
    # import would trip over
    modules = ["boltzgas"] + [
        f"boltzgas.{path.stem}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem != "__init__"
    ]
    stale = {}
    for name in modules:
        module = importlib.import_module(name)
        if missing := [n for n in module.__all__ if not hasattr(module, n)]:
            stale[name] = missing
    assert stale == {}


def package_imports(tree):
    """Names a script binds by importing from ``boltzgas``.

    Returns ``{bound: (module, name)}`` for ``from boltzgas[.module]
    import name`` and ``{bound: module}`` for ``import boltzgas[.module]``.
    """
    imported, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "boltzgas":
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "boltzgas":
                    bound = alias.asname or alias.name.split(".")[0]
                    aliases[bound] = alias.name if alias.asname else "boltzgas"
    return imported, aliases


def package_names(source):
    """``(module, name)`` pairs that a script reads from ``boltzgas``.

    Covers ``from boltzgas[.module] import name`` and attribute reads
    ``alias.name`` where ``alias`` is bound by ``import boltzgas[.module]``.
    """
    tree = ast.parse(source)
    imported, aliases = package_imports(tree)
    found = list(imported.values())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append((aliases[node.value.id], node.attr))
    return found


def unresolved(module, name):
    """Why ``module.name`` is not a public name of the package, or ``None``."""
    if name.startswith("_") and not name.endswith("__"):
        return "private"
    if hasattr(importlib.import_module(module), name):
        return None
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return "missing"
    return None


def test_script_reader_finds_imports_and_attribute_reads():
    source = (
        "import boltzgas as bg\n"
        "import numpy as np\n"
        "from boltzgas.kernels import sigma\n"
        "bg.simulate(np.zeros(3))\n"
    )
    assert sorted(package_names(source)) == [
        ("boltzgas", "simulate"),
        ("boltzgas.kernels", "sigma"),
    ]
    assert unresolved("boltzgas", "simulate") is None
    assert unresolved("boltzgas", "runio") is None
    assert unresolved("boltzgas", "no_such_name") == "missing"
    assert unresolved("boltzgas.engine", "_simulate") == "private"


def test_demos_and_benchmark_read_existing_public_names():
    scripts = sorted(REPO_DIR.glob("demos/*.py")) + sorted(
        REPO_DIR.glob("perfbench/*.py")
    )
    assert len(scripts) > 10
    offenders = {
        f"{path.parent.name}/{path.name}": bad
        for path in scripts
        if (
            bad := [
                (module, name, why)
                for module, name in package_names(path.read_text())
                if (why := unresolved(module, name))
            ]
        )
    }
    assert offenders == {}


def package_keywords(source):
    """``(callee, keyword)`` of every keyword a script passes to ``boltzgas``.

    The callee is the dotted path of a name bound by an import from
    ``boltzgas``, or of an attribute chain on one such as
    ``bg.diagnostics.weak_residual``; ``**mapping`` arguments are skipped.
    """
    tree = ast.parse(source)
    imported, bound = package_imports(tree)
    bound |= {name: ".".join(path) for name, path in imported.items()}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        attrs, func = [], node.func
        while isinstance(func, ast.Attribute):
            attrs.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in bound:
            callee = ".".join([bound[func.id], *reversed(attrs)])
            found += [(callee, kw.arg) for kw in node.keywords if kw.arg]
    return found


def takes_keyword(callee, keyword):
    """Whether the ``boltzgas`` callable at dotted path ``callee`` takes ``keyword``."""
    parts = callee.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            obj = importlib.import_module(".".join(parts[:k]))
    params = inspect.signature(obj).parameters.values()
    return any(
        p.kind is p.VAR_KEYWORD
        or (p.name == keyword and p.kind is not p.POSITIONAL_ONLY)
        for p in params
    )


def test_keyword_reader_resolves_callees():
    source = (
        "import boltzgas as bg\n"
        "from boltzgas.diagnostics import weak_residual as wr\n"
        "wr(paths, model, kernel, psi, n_nodes=200)\n"
        "bg.diagnostics.collision_action(model, kernel, psi, 0.0, z, level=2.0)\n"
        "bg.SimConfig(**options)\n"
        "len(paths, key=1)\n"
    )
    assert package_keywords(source) == [
        ("boltzgas.diagnostics.weak_residual", "n_nodes"),
        ("boltzgas.diagnostics.collision_action", "level"),
    ]
    assert not takes_keyword("boltzgas.diagnostics.weak_residual", "n_nodes")
    assert takes_keyword("boltzgas.diagnostics.collision_action", "level")
    assert takes_keyword("boltzgas.SimConfig", "horizon")


def test_demos_and_benchmark_pass_existing_keywords():
    # tier-1 never runs these scripts, so a deleted parameter would
    # break them silently
    scripts = sorted(REPO_DIR.glob("demos/*.py")) + sorted(
        REPO_DIR.glob("perfbench/*.py")
    )
    calls = {
        f"{path.parent.name}/{path.name}": package_keywords(path.read_text())
        for path in scripts
    }
    assert sum(map(len, calls.values())) > 20
    offenders = {
        script: bad
        for script, found in calls.items()
        if (bad := [pair for pair in found if not takes_keyword(*pair)])
    }
    assert offenders == {}


def test_import_loads_numpy_only():
    # scipy is a test dependency, never a runtime one
    probe = (
        "import sys, boltzgas; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=PACKAGE_DIR.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_import_builds_no_quadrature_rule():
    # a rule or table built on import is paid in every process's set-up
    probe = (
        "import boltzgas; from boltzgas import quadrature; "
        "print(quadrature._gl_cache.cache_info().currsize, "
        "quadrature._gh_cache.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=PACKAGE_DIR.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["0", "0"]
