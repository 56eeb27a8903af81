import json

import pytest

from carboncert import ledger as ledger_mod
from carboncert import pipeline
from carboncert.model import canonical_json

# pass/fail lines recorded by tests/test_acceptance.py, echoed after the run
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def sim_day(tmp_path_factory):
    """One fault-free simulated day through the full pipeline, shared read-only."""
    home = tmp_path_factory.mktemp("sim-day")
    config = pipeline.RunConfig(home=home, date="2025-06-01", seed=7)
    result = pipeline.run_simulation(config)
    return config, result


def _reseal_up_to_the_tip(chain_root, height, edit):
    """Apply ``edit`` to the parsed file of block ``height``; reseal it and
    every block above it with their links mended, and their journals bound
    to the new hashes, as someone who can write the chain's files could."""
    blocks, writes = chain_root / "blocks", chain_root / "writes"
    prev_hash = None
    for h in range(height, max(int(p.stem) for p in blocks.glob("*.json")) + 1):
        content = json.loads((blocks / f"{h}.json").read_bytes())
        if prev_hash is None:
            edit(content)
        else:
            content["prev_hash"] = prev_hash
        block = ledger_mod._block_from_dict(content)
        (blocks / f"{h}.json").write_bytes(ledger_mod._seal(block))
        prev_hash = block.block_hash
        journal = json.loads((writes / f"{h}.json").read_bytes())["body"]
        journal["block_hash"] = prev_hash
        (writes / f"{h}.json").write_bytes(ledger_mod._journal_file(canonical_json(journal)))


@pytest.fixture
def reseal_up_to_the_tip():
    return _reseal_up_to_the_tip


@pytest.fixture(params=[False, True], ids=["in-order", "split"])
def split(request, monkeypatch):
    """``verify_chain`` re-executes in this process only, or always in two
    parts, the second in a forked process, however few its transactions."""
    monkeypatch.setattr(ledger_mod, "_SPLIT_MIN_TXS", 0)
    monkeypatch.setattr(ledger_mod, "usable_cpus", lambda: 2 if request.param else 1)
    return request.param


@pytest.fixture(params=["kept", "deleted", "delta"])
def savepoint(request, monkeypatch):
    """Every ``cut_all`` writes a savepoint at the tip. "kept": a full one,
    for the next open to use where it can; "deleted": a full one, deleted
    once written, so that every open loads every block file; "delta": a full
    one at the genesis, written as the chain is created, and from then on a
    delta on it, so that an open uses both."""
    monkeypatch.setattr(ledger_mod, "_DELTA_MIN_TXS", 0)
    monkeypatch.setattr(ledger_mod, "_SAVEPOINT_MIN_TXS", 10**9 if request.param == "delta" else 0)
    if request.param == "deleted":
        write = ledger_mod.Ledger._write_savepoint

        def write_and_delete(self, full):
            write(self, full)
            self.savepoint_path.unlink()

        monkeypatch.setattr(ledger_mod.Ledger, "_write_savepoint", write_and_delete)
    elif request.param == "delta":
        write_genesis = ledger_mod.Ledger._write_genesis

        def write_genesis_and_savepoint(self, params):
            write_genesis(self, params)
            self._write_savepoint(full=True)

        monkeypatch.setattr(ledger_mod.Ledger, "_write_genesis", write_genesis_and_savepoint)
    return request.param


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
