"""The package imports only the standard library and numpy, its modules
import each other at module level and without a cycle, and it raises no bare
ValueError (a bad argument raises ParameterError)."""

from __future__ import annotations

import ast
import graphlib
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


def _type_checking_only(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING",
                                                                    "typing.TYPE_CHECKING")


def relative_imports(source: str) -> tuple[set[str], list[int]]:
    """The sibling modules a package file imports when it runs, and the lines
    of its relative imports that sit inside a function or a class.

    An import under ``if TYPE_CHECKING:`` serves annotations only: it never
    runs, so it adds no module."""
    tree = ast.parse(source)
    skipped = {id(n) for block in ast.walk(tree) if _type_checking_only(block)
               for n in ast.walk(block)}
    nested = {id(n) for scope in ast.walk(tree)
              if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              for n in ast.walk(scope)}
    found = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    modules = {name for n in found if id(n) not in skipped
               for name in ([n.module.split(".")[0]] if n.module else [a.name for a in n.names])}
    return modules, sorted(n.lineno for n in found if id(n) in nested)


def package_graph() -> dict[str, tuple[set[str], list[int]]]:
    """``relative_imports`` of every package module, by module name."""
    return {path.stem: relative_imports(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE_DIR.glob("*.py"))}


def test_package_imports_sit_at_module_level():
    nested = {name: lines for name, (_, lines) in package_graph().items() if lines}
    assert nested == {}


def test_package_import_graph_is_acyclic():
    graph = {name: modules for name, (modules, _) in package_graph().items()}
    graphlib.TopologicalSorter(graph).prepare()  # a cycle raises CycleError, naming it


def test_operator_imports_nothing_from_problem():
    assert "problem" not in package_graph()["operator"][0]


def test_import_guard_sees_nesting_type_checking_and_package_imports():
    source = ("from typing import TYPE_CHECKING\nfrom . import grid, norms\nfrom .errors import X\n"
              "if TYPE_CHECKING:\n    from .problem import Spec\n"
              "def f():\n    from .solvers import solve\n"
              "class C:\n    def g(self):\n        from .cli import main\n")
    assert relative_imports(source) == ({"grid", "norms", "errors", "solvers", "cli"}, [7, 10])


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


def _run_python(code: str, cwd=None) -> str:
    """The stdout of ``python -c code`` with the package on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120, cwd=cwd).stdout


def test_cli_import_loads_no_scipy():
    code = "import sys, goursat2d.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _run_python(code).strip() == "[]"


#: Every command at N <= 16, each verify suite with the flags it reads.
CLI_CALLS = """
import contextlib, io, sys
from goursat2d import cli
calls = [
    ["solve", "--builtin", "example46", "--n", "8", "--rhs", "1", "--out", "s"],
    ["linsolve", "--builtin", "example46", "--n", "8", "--rhs", "1", "--out", "l"],
    ["sens", "--builtin", "example46", "--n", "8", "--rhs", "1", "--direction", "1", "--out", "d"],
    ["mms", "--builtin", "example46", "--zstar", "x*y", "--n-list", "4,8", "--out", "m"],
    *(["verify", "--suite", suite, "--samples", "2", *["--n", "8"] * ("--n" in flags),
       *["--builtin", "example46"] * ("--builtin" in flags)]
      for suite, (_, _, flags) in cli._SUITES.items()),
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in calls]
print(codes, "numpy.random" in sys.modules)
"""


def test_no_cli_command_loads_numpy_random(tmp_path):
    # every command draws (the assumption probe at least), and the draws come
    # from the package's own stream: numpy.random would add about 6 MiB
    assert _run_python(CLI_CALLS, cwd=tmp_path).strip() == "[0, 0, 0, 0, 0, 0, 0, 0, 0] False"
