"""Every name a ``carboncert`` module imports at module level is used in it.

No linter is installed, so this reads the modules with ``ast``: a refactor
that leaves an import behind fails here. ``__init__.py`` imports to export,
and ``from __future__`` imports bind no name, so neither is checked."""

import ast
from pathlib import Path

import pytest

import carboncert

MODULES = sorted(p for p in Path(carboncert.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os, json as j\nimport a.b\nfrom x import y, z as w\nos.sep, w\n"
    assert _unused_imports(source) == [(2, "j"), (3, "a"), (4, "y")]
