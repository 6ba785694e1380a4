"""Every name that a top-level import binds in a ``bestarm`` module is used
in that module. ``__init__.py`` re-exports, and ``from __future__`` imports
bind nothing, so both are skipped.

Every private name a ``bestarm`` module defines is referenced in that
module: code with no caller goes. A private name starts with one
underscore; the module's functions, classes and assigned constants, and its
classes' methods, are checked."""

import ast
import importlib
import re
from collections import Counter
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


def references(tree: ast.AST) -> Counter:
    """How often each name is loaded, read as an attribute or spelled as a
    string (the CLI looks its entry points up by name)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                   else n.value for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
                   or isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Constant) and isinstance(n.value, str))


def unreferenced_private_names(tree: ast.Module) -> list[str]:
    """The private names defined and never referenced outside their own
    definition, so a function that only calls itself is found too."""
    defined = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            defined += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.append((node.target.id, node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            defined += [(n.name, n) for n in node.body
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    used = references(tree)
    return [name for name, node in defined if name.startswith("_") and not name.startswith("__")
            and used[name] == references(node)[name]]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os, numpy.random\nfrom x import a, b as c, d\nos.sep\nc()\nt = {'d': 'a.x'}\n")
    assert unused_imports(tree) == ["numpy", "a"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_name_is_referenced(path):
    assert unreferenced_private_names(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unreferenced_private_name_is_found():
    tree = ast.parse("_A = 1\n_B: int = 2\nC = _A\n__all__ = []\n"
                     "def _f(): pass\ndef _g(): pass\nclass _K:\n"
                     "    def _m(self): pass\n    def _n(self): self._m()\n    def __init__(self): pass\n"
                     "def _r(n): return _r(n - 1)\n_g()\nt = {'_K': 1}\n")
    assert unreferenced_private_names(tree) == ["_B", "_f", "_n", "_r"]


def test_console_script_names_a_callable():
    # Python 3.10 has no tomllib, so the one script line is read by pattern.
    pyproject = (SOURCES[0].parents[2] / "pyproject.toml").read_text(encoding="utf-8")
    targets = re.findall(r'^bestarm\s*=\s*"([\w.]+):(\w+)"\s*$', pyproject, re.MULTILINE)
    assert len(targets) == 1, targets
    module, function = targets[0]
    assert callable(getattr(importlib.import_module(module), function, None)), targets[0]
