"""The package imports only the standard library and numpy, and raises no
bare ValueError (a bad argument raises ParameterError)."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import goursat2d

PACKAGE_DIR = Path(goursat2d.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "goursat2d"}


def top_level_imports(source: str) -> set[str]:
    """First components of the absolute modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(PACKAGE_DIR.glob("*.py"))
    assert files
    foreign = {
        path.name: sorted(top_level_imports(path.read_text(encoding="utf-8")) - ALLOWED)
        for path in files
    }
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def value_error_raises(source: str) -> list[int]:
    """Lines of a source file that raise ``ValueError`` itself."""
    raises = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
    named = [(r.lineno, r.exc.func if isinstance(r.exc, ast.Call) else r.exc) for r in raises]
    return sorted(line for line, exc in named
                  if isinstance(exc, ast.Name) and exc.id == "ValueError")


def test_package_raises_no_bare_value_error():
    found = {path.name: value_error_raises(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_value_error_guard_sees_calls_and_names():
    source = "raise ValueError('x')\nraise ValueError\nraise ParameterError('x')\nraise\n"
    assert value_error_raises(source) == [1, 2]


def test_every_exported_name_resolves():
    assert [name for name in goursat2d.__all__ if not hasattr(goursat2d, name)] == []


def test_guard_sees_nested_and_from_imports():
    source = "import numpy.linalg\nfrom scipy.stats import qmc\nfrom . import grid\n"
    assert top_level_imports(source) == {"numpy", "scipy"}


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = "import sys, goursat2d.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
