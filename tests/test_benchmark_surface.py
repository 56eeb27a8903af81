"""The benchmark in ``perfbench/`` reaches the program through module attributes.
Removing one of them, or breaking the cycle it runs, must fail here, not first
in a benchmark run."""

import ast
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_traced_day_cycle_matches_the_untraced_one(tmp_path):
    # the benchmark writes perfbench-results/ and .perfbench-work/ beside itself,
    # so it runs from a copy; --trace 1 runs one untraced and one traced cycle
    # and fails unless both commit, certify and audit the day to equal fingerprints
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["perfbench/run.py", "--workload", "day-clean", "--seed", "1", "--seconds", "0", "--trace", "1"]
    run = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stdout
