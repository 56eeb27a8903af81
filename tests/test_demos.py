"""The README's demos run end to end, in order, on one data root."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _demo(name, cwd):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, str(REPO / "demos" / name)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_demos_run_in_order(tmp_path):
    _demo("01_simulate_day.py", tmp_path)
    lifecycle = _demo("02_credit_lifecycle.py", tmp_path)
    for rejection in ("INVALID (already_accrued)", "INVALID (unauthorized)", "INVALID (illegal_transition)"):
        assert rejection in lifecycle
    audit = _demo("03_tamper_audit.py", tmp_path)
    verdicts = [line for line in audit.splitlines() if ": AUDIT " in line]
    assert verdicts[-1] == "final: AUDIT PASS"  # after the tampered runs fail
