"""The CLI loads only the layers a command runs.

``credits`` and ``ledger`` read and write the chain alone: neither they nor
``import carboncert.cli`` load numpy, ``multiprocessing`` or a telemetry
layer. Each case runs in a fresh interpreter, whose ``sys.modules`` is the
record; nothing is timed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import carboncert
from carboncert import pipeline
from carboncert.model import FleetConfig

TELEMETRY = (
    "numpy",
    "multiprocessing",
    "carboncert.metersim",
    "carboncert.collector",
    "carboncert.aggregator",
    "carboncert.audit",
)
DATE = "2025-06-01"


def _loaded(code: str):
    """(last line ``code`` printed, the ``TELEMETRY`` modules loaded when it ended),
    ``code`` run in a fresh interpreter."""
    src = str(Path(carboncert.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    report = f"\nimport sys\nprint(json.dumps([m for m in {TELEMETRY!r} if m in sys.modules]))\n"
    run = subprocess.run([sys.executable, "-c", code + report], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    return (lines[-2] if len(lines) > 1 else None), json.loads(lines[-1])


def _cli(home: Path, *argv: str):
    """(exit code, the ``TELEMETRY`` modules loaded) of ``carboncert --home home argv``."""
    code = f"import json\nfrom carboncert import cli\nprint(cli.main({['--home', str(home), *argv]!r}))"
    rc, loaded = _loaded(code)
    return int(rc), loaded


@pytest.fixture(scope="module")
def home(tmp_path_factory):
    """One simulated day of two meters, one per collector, which keeps the day short."""
    home = tmp_path_factory.mktemp("startup-home")
    pipeline.run_simulation(pipeline.RunConfig(home=home, date=DATE, seed=5, fleet=FleetConfig(meters=(2, 7))))
    return home


def test_importing_the_cli_loads_no_telemetry_layer():
    assert _loaded("import json\nimport carboncert.cli") == (None, [])


def test_credit_and_ledger_commands_load_no_telemetry_layer(home):
    assert _cli(home, "credits", "accrue", "--date", DATE, "--as", "plant-1") == (0, [])
    assert _cli(home, "credits", "verify", "--serial", f"CC-plant-1-{DATE.replace('-', '')}-1",
                "--as", "certifier-1") == (0, [])
    for argv in (("verify",), ("inspect",), ("history", f"accrual/plant-1/{DATE}")):
        assert _cli(home, "ledger", *argv) == (0, [])


def test_the_audit_loads_what_it_runs(home):
    # the check above sees a load: the audit replays the CSVs with numpy
    rc, loaded = _cli(home, "audit", "--date", DATE)
    assert rc == 0 and {"numpy", "carboncert.audit"} <= set(loaded)
