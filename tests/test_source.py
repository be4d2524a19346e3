"""Checks on the package's source text itself, read with the standard
library's `ast` alone."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "abpsim"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """The names a module's top-level import statements bind and its code
    never reads; `from __future__` imports bind none."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport json\n"
              "from typing import List, Sequence as Seq\nx: List[int] = json.loads('[]')\n")
    assert _unused_imports(source) == [(2, "os"), (4, "Seq")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
