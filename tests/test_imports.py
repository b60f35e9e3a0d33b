"""Every name a module imports is read somewhere in that module, and
every import sits outside any function.

No linter ships with the package, so this stands in for the unused-import
check: each ``src/swphase`` module except ``__init__.py`` (whose imports
are the package's exports) is parsed with ``ast``. For ``__init__.py`` the
rule is that ``swphase.__all__`` names exactly what it imports, each name
resolving on the package. An import inside a function hides a dependency
from the module's header, often one on a layer above it, so no module of
the package makes one.
"""
import ast
from pathlib import Path

import pytest

import swphase

MODULES = sorted(p for p in Path(swphase.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_the_check_sees_an_unused_name():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_names(source: str) -> set:
    """Names a module binds with ``from ... import``."""
    return {a.asname or a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for a in node.names}


def test_the_package_exports_what_it_imports():
    init = Path(swphase.__file__).read_text(encoding="utf-8")
    assert sorted(swphase.__all__) == sorted(imported_names(init))
    assert [name for name in swphase.__all__ if not hasattr(swphase, name)] == []


def test_the_export_check_reads_every_from_import():
    assert imported_names("from __future__ import annotations\nimport os\n"
                          "from .a import X, Y as Z\n") == {"X", "Z"}


def local_imports(source: str) -> list:
    """Lines of the imports made inside a function."""
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_the_check_sees_a_local_import():
    assert local_imports("import os\ndef f():\n    import sys\n"
                         "    def g():\n        from . import x\n") == [3, 5]


@pytest.mark.parametrize("path", sorted(Path(swphase.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_at_the_top(path):
    assert local_imports(path.read_text(encoding="utf-8")) == []
