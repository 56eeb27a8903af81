"""Every name a ``carboncert`` module imports is used where it is imported:
an import at module level somewhere in the module, an import inside a
function in that function (a function defined in it included).

No linter is installed, so this reads the modules with ``ast``: a refactor
that leaves an import behind fails here. ``__init__.py`` imports to export,
and ``from __future__`` imports bind no name, so neither is checked."""

import ast
from pathlib import Path

import pytest

import carboncert

MODULES = sorted(p for p in Path(carboncert.__file__).parent.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(nodes):
    """{bound name: line} of the imports among ``nodes``."""
    imported = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def _own_nodes(function):
    """The nodes of ``function``'s body, those of a function defined in it aside."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(source: str):
    tree = ast.parse(source)
    scopes = [(tree, tree.body)]  # (where a name is used, the statements that import it)
    scopes += [(node, _own_nodes(node)) for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]
    unused = []
    for scope, statements in scopes:
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += [(line, name) for name, line in _imports(statements).items() if name not in used]
    return sorted(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os, json as j\nimport a.b\nfrom x import y, z as w\nos.sep, w\n"
    assert _unused_imports(source) == [(2, "j"), (3, "a"), (4, "y")]
    # a function's import is used in that function, or in one defined in it
    source = (
        "def f():\n"
        "    from . import p, q\n"
        "    if p:\n"
        "        import r, s\n"
        "    def g():\n"
        "        import t\n"
        "        return r\n"
        "    return t\n"
        "q\n"
    )
    assert _unused_imports(source) == [(2, "q"), (4, "s"), (6, "t")]
