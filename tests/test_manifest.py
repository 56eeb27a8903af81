"""Every output of a small certified home, pinned by ``golden_manifest.json``.

The home: meters 2 and 7, one per collector; 2025-06-01 clean and 2025-06-02
with duplicates and 30 s jitter, under a phase power bound that flags minutes
of both days; the first day's credit accrued, verified, issued, retired and
then refused a sale; both days audited; the chain verified. Each step runs
through ``cli.main``. The manifest holds the sha256 of every file under the
home, the tip hash and the state digest. A change that alters output bytes
regenerates it and says why:

    PYTHONPATH=src python tests/test_manifest.py
"""

import hashlib
import json
import sys
from pathlib import Path

from carboncert import cli, pipeline
from carboncert.chaincode import CreditContract

MANIFEST = Path(__file__).with_name("golden_manifest.json")
SERIAL = "CC-plant-1-20250601-1"
FLEET = {
    "meters": [2, 7],
    "assignments": {"A": [2], "B": [7]},
    "rules": {"phase_power_range": [-200.0, 4190.0]},
}
FAULTS = {"duplicate_probability": 0.1, "reorder_jitter_max": 30.0, "rng_seed": 5}
# (argv after --home, exit code); "{clean}" and "{faulted}" name the two run configurations
STEPS = [
    (["simulate", "--config", "{clean}", "--date", "2025-06-01", "--seed", "3"], 0),
    (["simulate", "--config", "{faulted}", "--date", "2025-06-02", "--seed", "4"], 0),
    (["credits", "accrue", "--date", "2025-06-01", "--as", "plant-1"], 0),
    (["credits", "verify", "--serial", SERIAL, "--as", "certifier-1"], 0),
    (["credits", "issue", "--serial", SERIAL, "--as", "certifier-1"], 0),
    (["credits", "retire", "--serial", SERIAL, "--as", "plant-1"], 0),
    (["credits", "sell", "--serial", SERIAL, "--as", "plant-1"], 1),  # illegal_transition
    (["audit", "--config", "{clean}", "--date", "2025-06-01"], 0),
    (["audit", "--config", "{clean}", "--date", "2025-06-02"], 0),
    (["ledger", "verify"], 0),
]


def build_home(root: Path) -> Path:
    """Run every step into ``root/home``; AssertionError names a step that exits otherwise."""
    home = root / "home"
    configs = {"clean": root / "clean.json", "faulted": root / "faulted.json"}
    configs["clean"].write_text(json.dumps(FLEET))
    configs["faulted"].write_text(json.dumps({**FLEET, "faults": FAULTS}))
    for argv, code in STEPS:
        argv = [arg.format(**configs) for arg in argv]
        assert cli.main(["--home", str(home), *argv]) == code, argv
    return home


def manifest(home: Path) -> dict:
    """The sha256 of every file under ``home``, with the tip hash and state
    digest of the ledger reopened from its block files and journals."""
    files = {
        path.relative_to(home).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(home.rglob("*"))
        if path.is_file()
    }
    ledger = pipeline.open_ledger(pipeline.RunConfig(home=home))
    return {"files": files, "state_digest": ledger.state_digest(), "tip_hash": ledger.tip_hash}


def test_every_output_matches_the_golden_manifest(tmp_path, capsys, monkeypatch):
    home = build_home(tmp_path)
    assert "chain OK, height" in capsys.readouterr().out.splitlines()[-1]
    calls = []
    monkeypatch.setattr(CreditContract, "__call__", lambda self, *args: calls.append(args))
    got = manifest(home)
    assert calls == []  # the open applies the journals and runs no chaincode
    want = json.loads(MANIFEST.read_text())
    differ = sorted(
        name for name in want["files"].keys() | got["files"].keys()
        if want["files"].get(name) != got["files"].get(name)
    )
    assert differ == [], f"files that differ from {MANIFEST.name}: {differ}"
    assert got == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = manifest(build_home(Path(tmp)))
    MANIFEST.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}: {len(result['files'])} files, tip {result['tip_hash']}", file=sys.stderr)
