"""Every module-level import in the package is read, and so is every
module-level private name, checked with the standard library's ast so the
check needs no linter.  Only __init__.py, whose imports are the package's
names, is exempt from the import check."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "eigenmark"


def unused_imports(source: str) -> list[str]:
    """The names that source's module-level imports bind and it never reads.
    `from __future__` imports are skipped."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    # An attribute chain such as np.pi starts with the Name it reads.
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\nimport numpy as np\n"
              "from .x import (a,\n    b)\n"
              "print(np.pi, a)\n")
    assert unused_imports(source) == ["b", "json", "os"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")
                                          if path.name != "__init__.py"))
def test_module_reads_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> set[str]:
    """The private names (_name, not __dunder__) that source's module-level
    functions, classes and assignments define."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """Every name source reads, bare or as an attribute (module._name)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def orphaned_private_names(sources) -> list[str]:
    """The private module-level names that no source of the set reads."""
    sources = list(sources)
    defined = set().union(*map(private_definitions, sources))
    return sorted(defined - set().union(*map(read_names, sources)))


def test_the_check_finds_an_orphaned_private_helper():
    helper = ("import functools\n"
              "@functools.cache\ndef _factor(n):\n    return n\n"
              "def _fast(a):\n    return a\n"
              "_LIMIT = 3\n__all__ = []\n"
              "def transform(a):\n    return _fast(a)\n")
    caller = "from . import helper\nprint(helper._LIMIT)\n"
    assert orphaned_private_names([helper, caller]) == ["_factor"]


def test_package_reads_every_private_name():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert orphaned_private_names(sources) == []
