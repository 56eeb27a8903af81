"""The benchmark in ``perfbench/`` reaches the program through module attributes.
Removing one of them must fail here, not first in a benchmark run."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def benchmark_uses():
    """Every (module, attribute) pair the benchmark's sources name: attributes of
    a name bound to a ``carboncert`` module, and names imported from one."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PERFBENCH.glob("*.py"))]
    modules = {}  # local name -> module; run.py passes its modules on to spans.py under the same names
    uses = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "carboncert":
                modules.update({alias.asname or alias.name: f"carboncert.{alias.name}" for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("carboncert."):
                uses.update((node.module, alias.name) for alias in node.names)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                uses.add((modules[node.value.id], node.attr))
    return uses


def test_program_has_every_name_the_benchmark_uses():
    uses = benchmark_uses()
    assert {("carboncert.aggregator", "mark_processed"), ("carboncert.metersim", "run_day")} <= uses
    missing = sorted(
        f"{module}.{name}" for module, name in uses if not hasattr(importlib.import_module(module), name)
    )
    assert missing == []
