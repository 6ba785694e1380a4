"""Every name that a top-level import binds in a ``bestarm`` module is used
in that module. ``__init__.py`` re-exports, and ``from __future__`` imports
bind nothing, so both are skipped."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bestarm").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    # A string equal to the name counts as a use: the CLI looks its entry
    # points up by name.
    used = {n.id if isinstance(n, ast.Name) else n.value for n in ast.walk(tree)
            if isinstance(n, ast.Name) or isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os, numpy.random\nfrom x import a, b as c, d\nos.sep\nc()\nt = {'d': 'a.x'}\n")
    assert unused_imports(tree) == ["numpy", "a"]
