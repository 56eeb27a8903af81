"""Every function, class and method ``carboncert`` defines is named somewhere
in the program: in ``src/``, ``perfbench/`` or ``demos/``.

Like ``test_import_hygiene.py`` this reads the sources with ``ast``: a
definition that only tests call is dead code, and a refactor that leaves one
behind fails here. A dunder is called by Python itself and is not checked. A
definition kept for the tests names its reason in ``KEPT_FOR_TESTS``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "carboncert"
PROGRAM = [ROOT / "src", ROOT / "perfbench", ROOT / "demos"]

KEPT_FOR_TESTS = {
    "sample_meter": "the scalar reference that the columnar generator is checked against",
    "rebuilt_state_digest": "the replay oracle that the journal-applied state is checked against",
    "state_digest": "the state digest that golden_manifest.json pins",
    "pending_count": "how the ledger tests see transactions not yet cut into a block",
    "read_day_csv": "the reader of the acceptance gate's conservation criterion",
}


def _definitions(source: str):
    """(name, line) of every function, class and method ``source`` defines, dunders aside."""
    return sorted(
        (node.name, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def _named(source: str):
    """Every name ``source`` reads, as a variable, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _program_names():
    return set().union(*(_named(p.read_text(encoding="utf-8")) for root in PROGRAM for p in root.rglob("*.py")))


def _unused(definitions, named, kept):
    return [(name, line) for name, line in definitions if name not in named and name not in kept]


def test_every_definition_is_named_in_the_program():
    named = _program_names()
    unused = [
        (path.name, name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _unused(_definitions(path.read_text(encoding="utf-8")), named, KEPT_FOR_TESTS)
    ]
    assert unused == []


def test_every_kept_definition_exists_and_is_unnamed_in_the_program():
    # an entry whose definition went, or that the program now names, is stale
    named = _program_names()
    defined = {name for p in PACKAGE.glob("*.py") for name, _ in _definitions(p.read_text(encoding="utf-8"))}
    assert sorted(set(KEPT_FOR_TESTS) - defined) == []
    assert sorted(set(KEPT_FOR_TESTS) & named) == []


def test_a_definition_named_nowhere_is_found():
    source = (
        "import a.used_import\n"
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    def method(self): return helper()\n"
        "    def orphan(self): pass\n"
        "def helper(): return Kept().method\n"
        "async def spare(): pass\n"
        "def exempt(): pass\n"
        "def used_import(): pass\n"
    )
    got = _unused(_definitions(source), _named(source), {"exempt": "kept"})
    assert got == [("orphan", 5), ("spare", 7)]
