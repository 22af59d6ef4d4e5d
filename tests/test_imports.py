"""Every module-level import in the package is read, checked with the
standard library's ast so the check needs no linter.  Only __init__.py,
whose imports are the package's names, is exempt."""

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
