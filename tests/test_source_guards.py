"""Structural guards read off the package's source with ast.

- No construct that python -O or -OO changes: an assert statement (-O drops
  it), a __debug__ name (False under -O) or a __doc__ read (None under -OO).
  The invariants are checks that raise, so they hold in every mode.
- CurveFacts is built only in curve._standard_facts, the one constructor that
  checks what it builds; obstruction.dim_of and h0_normal read h0(N) = 4d + h2
  off it without checking it again, which is sound only while that holds.
- Every absolute import names a standard-library module, so the package
  runs on the standard library alone, as README promises.
"""

import ast
import sys
from pathlib import Path

import pytest

import cubiccurves

PACKAGE = Path(cubiccurves.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _mode_sensitive(tree: ast.AST) -> list[str]:
    """Each assert, __debug__ name and __doc__ read in tree, as 'line: what'."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"{node.lineno}: assert")
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append(f"{node.lineno}: __debug__")
        elif (
            isinstance(node, ast.Name) and node.id == "__doc__"
            or isinstance(node, ast.Attribute) and node.attr == "__doc__"
        ) and isinstance(node.ctx, ast.Load):
            found.append(f"{node.lineno}: __doc__ read")
    return found


def _curve_facts_builds(tree: ast.AST) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each CurveFacts(...) or CurveFacts._make(...) call in tree."""
    found = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr == "_make":
                f = f.value
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name == "CurveFacts":
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _absolute_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level module name) of each absolute import in tree; relative ones are the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_guards_see_what_they_look_for():
    tree = ast.parse(
        "def f(x):\n"
        "    assert x\n"
        "    if __debug__:\n"
        "        return __doc__.strip(), f.__doc__\n"
        "    return CurveFacts(x), curve.CurveFacts._make(x)\n"
        "import gmpy2, os.path\n"
        "from .x import y\n"
    )
    assert _mode_sensitive(tree) == ["2: assert", "3: __debug__", "4: __doc__ read", "4: __doc__ read"]
    assert _curve_facts_builds(tree) == [("f", 5), ("f", 5)]
    assert _absolute_imports(tree) == [(6, "gmpy2"), (6, "os")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_construct_that_O_or_OO_changes(path):
    assert _mode_sensitive(_parse(path)) == []


def test_curve_facts_is_built_only_in_standard_facts():
    builds = {path.name: _curve_facts_builds(_parse(path)) for path in SOURCES}
    outside = {name: calls for name, calls in builds.items() if calls and name != "curve.py"}
    assert outside == {}
    assert [func for func, _ in builds["curve.py"]] == ["_standard_facts"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = [(line, name) for line, name in _absolute_imports(_parse(path)) if name not in sys.stdlib_module_names]
    assert outside == []
