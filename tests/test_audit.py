import ast
import dataclasses
import inspect
import json
import multiprocessing
import os
import random
import shutil

import pytest

from carboncert import audit, metersim, pipeline
from carboncert.audit import (
    AuditReport,
    DayReplay,
    Mismatch,
    MissingData,
    emit_report,
    replay_day,
    replay_verify,
)
from carboncert.aggregator import AnomalyRules
from carboncert.chaincode import CONTRACT_VERSION, CreditContract
from carboncert.ledger import Ledger, make_identity
from carboncert.model import EmissionConfig, Role, canonical_json, digest_hex

RULES = AnomalyRules()


@pytest.fixture(scope="module")
def audited(sim_day):
    config, result = sim_day
    ledger = pipeline.open_ledger(config)
    replay = replay_day(config.collector_roots, config.date, RULES, config.producer)
    return config, ledger, replay


def test_the_audit_imports_nothing_from_the_pipeline_it_checks():
    tree = ast.parse(inspect.getsource(audit))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert imported == {
        "__future__", "hashlib", "json", "re", "dataclasses", "datetime", "itertools",
        "pathlib", "typing", "numpy", "ledger", "model",
    }


def test_independent_canonical_emitter_agrees_with_pipeline():
    value = {
        "a": [1, 2.5, None, True, False],
        "b": {"nested": -0.0, "s": 'quote"inside'},
    }
    assert audit._canon(value).encode() == canonical_json(value)


def test_replay_reproduces_on_chain_batches_exactly(audited):
    config, ledger, replay = audited
    assert len(replay.batches) == 288
    assert replay.missing_windows == []
    assert replay.flagged_minutes == []
    for w, expected in replay.batch_bytes.items():
        key = f"batch/{config.producer}/{config.producer}-20250601-{w:03d}"
        assert ledger.query_state(key) == expected


def test_replay_verify_clean_day_passes(audited):
    config, ledger, replay = audited
    report = replay_verify(
        config.collector_roots, ledger, config.date, config.producer, RULES
    )
    assert report.passed
    assert report.chain_ok and report.first_bad_height is None
    assert report.mismatches == []


def test_replay_verify_accepts_precomputed_replay(audited):
    config, ledger, replay = audited
    report = replay_verify(
        config.collector_roots, ledger, config.date, config.producer, RULES, replay=replay
    )
    assert report.passed


def test_replay_energy_matches_credit_after_accrual(audited, tmp_path):
    config, ledger, replay = audited
    # accrual may already exist from other tests against the shared ledger
    if ledger.query_state(f"accrual/{config.producer}/{config.date}") is None:
        tx_id = ledger.submit_tx(
            canonical_json({"op": "accrue", "producer": config.producer, "date": config.date}),
            config.producer,
        )
        assert ledger.get_transaction(tx_id).status == "VALID"
        ledger.cut_all()
    serial = json.loads(
        ledger.query_state(f"accrual/{config.producer}/{config.date}").decode()
    )["serial"]
    credit = json.loads(ledger.query_state(f"credit/{serial}").decode())
    assert credit["energy_kwh"] == pytest.approx(replay.energy_kwh, rel=1e-9)
    report = replay_verify(
        config.collector_roots, ledger, config.date, config.producer, RULES, replay=replay
    )
    assert report.passed
    assert report.credit_summary["serial"] == serial


def test_detects_tampered_csv_field(audited, tmp_path):
    config, ledger, replay = audited
    target = config.collector_roots[0] / config.date / "SEM1.csv"
    original = target.read_bytes()
    try:
        lines = original.decode().splitlines()
        # bump one populated active_power cell by 1 W
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if cells[3]:
                cells[3] = format(float(cells[3]) + 1.0, ".3f")
                lines[i] = ",".join(cells)
                break
        target.write_text("\n".join(lines) + "\n")
        report = replay_verify(
            config.collector_roots, ledger, config.date, config.producer, RULES
        )
        assert not report.passed
        assert report.chain_ok  # the chain itself is untouched
        assert any(m.stage == "aggregate" for m in report.mismatches)
    finally:
        target.write_bytes(original)


def test_a_row_with_extra_cells_fails_the_audit(audited):
    config, ledger, _ = audited
    target = config.collector_roots[0] / config.date / "SEM1.csv"
    original = target.read_bytes()
    try:
        lines = original.decode().splitlines()
        lines[3] += ",junk,more"
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(audit.UnreadableCsv, match="SEM1.csv line 4: 12 cells, expected 10"):
            replay_day(config.collector_roots, config.date, RULES, config.producer)
        report = replay_verify(config.collector_roots, ledger, config.date, config.producer, RULES)
        assert not report.passed and report.chain_ok
        assert report.notices == [f"UnreadableCsv: {target} line 4: 12 cells, expected 10"]
    finally:
        target.write_bytes(original)


def test_detects_tampered_block_file(audited):
    config, ledger, replay = audited
    target = ledger.blocks_dir / "3.json"
    original = target.read_bytes()
    try:
        mutated = bytearray(original)
        mutated[len(mutated) // 2] ^= 0x01
        target.write_bytes(bytes(mutated))
        report = replay_verify(
            config.collector_roots, ledger, config.date, config.producer, RULES, replay=replay
        )
        assert not report.passed
        assert report.first_bad_height == 3
    finally:
        target.write_bytes(original)


def test_missing_data_surfaces(tmp_path, audited):
    config, ledger, _ = audited
    with pytest.raises(MissingData):
        replay_day([tmp_path / "nothing"], config.date, RULES, config.producer)
    report = replay_verify([tmp_path / "nothing"], ledger, config.date, config.producer, RULES)
    assert not report.passed
    assert any("MissingData" in n for n in report.notices)


def test_emit_report_format_and_stability(audited, tmp_path):
    config, ledger, replay = audited
    report = replay_verify(
        config.collector_roots, ledger, config.date, config.producer, RULES, replay=replay
    )
    json_path, txt_path = emit_report(report, tmp_path / "reports")
    assert json_path.name == f"audit-{config.date}.json"
    first_line = txt_path.read_text().splitlines()[0]
    assert first_line == f"AUDIT PASS {config.date}"
    loaded = json.loads(json_path.read_text())
    assert loaded["result"] == "PASS" and loaded["mismatches"] == []
    before = json_path.read_bytes(), txt_path.read_bytes()
    emit_report(report, tmp_path / "reports")
    assert (json_path.read_bytes(), txt_path.read_bytes()) == before


def test_emit_report_publishes_whole_files_with_unchanged_bytes(tmp_path):
    report = AuditReport(
        date="2025-06-01",
        chain_ok=False,
        first_bad_height=3,
        replay_matches=False,
        mismatches=[Mismatch("aggregate", "plant-1-20250601-007@2025-06-01T00:35:00Z", "ab", None)],
        quarantine_summary={"replayed_flagged_minutes": 1, "on_chain_entries": 0},
        notices=["MissingData: no collector CSV data for 2025-06-01"],
    )
    paths = emit_report(report, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["audit-2025-06-01.json", "audit-2025-06-01.txt"]
    assert [digest_hex(p.read_bytes()) for p in paths] == [
        "30b04f27c74842a9db2ce4a0d047da9e18ddbbd3cfc5de3273838b5ac006d102",
        "ea8e0907dd2d33e69e39d9c02b3d7547c4833ff2e4dcbe68c43ddf843b878927",
    ]


def test_failing_report_lists_mismatches(tmp_path, audited):
    config, ledger, replay = audited
    broken = DayReplay(
        date=config.date,
        batches=dict(replay.batches),
        batch_bytes=dict(replay.batch_bytes),
        flagged_minutes=list(replay.flagged_minutes),
        missing_windows=list(replay.missing_windows),
        energy_kwh=replay.energy_kwh,
    )
    # perturb one replayed batch so the comparison must fail
    w = 100
    altered = json.loads(broken.batch_bytes[w].decode())
    altered["aggregates"][0]["total_power"] += 5.0
    broken.batches[w] = altered
    broken.batch_bytes[w] = audit._canon(altered).encode()
    report = replay_verify(
        config.collector_roots, ledger, config.date, config.producer, RULES, replay=broken
    )
    assert not report.passed
    _, txt_path = emit_report(report, tmp_path)
    lines = txt_path.read_text().splitlines()
    assert lines[0] == f"AUDIT FAIL {config.date}"
    assert any(line.startswith("mismatch stage=aggregate") for line in lines)
    assert digest_hex(broken.batch_bytes[w]) in "\n".join(lines)


@pytest.fixture(scope="module")
def flagged_day(tmp_path_factory):
    """A day of meters 2 and 7 whose 100 W ramp limit flags 206 minutes."""
    config = pipeline.RunConfig(
        home=tmp_path_factory.mktemp("flagged-day"),
        seed=3,
        fleet=metersim.FleetConfig(meters=(2, 7), assignments={"A": (2,), "B": (7,)}),
        rules=AnomalyRules(max_ramp_watts_per_minute=100.0),
    )
    result = pipeline.run_simulation(config)
    assert result.flagged_minutes == 206
    return config


def _chain_with_changed_quarantine_record(config, tmp_path, minute_index, **changes):
    """The flagged day's transactions filed again on a new chain, the entry of
    ``minute_index`` in the producer's quarantine op with ``changes``: the
    op is the date's first, so the chain takes it."""
    emission, rules, members = pipeline.chain_parameters(config.chain_root)
    ledger = Ledger(tmp_path / "chain", CreditContract(emission=emission, rules=rules), str(CONTRACT_VERSION), members)
    minute = f"{config.date}T{minute_index // 60:02d}:{minute_index % 60:02d}:00Z"
    for block in pipeline.open_ledger(config).blocks():
        for tx in block.transactions:
            op = json.loads(tx.payload)
            if op["op"] == "quarantine":
                op["entries"] = [{**e, **changes} if e["minute_start"] == minute else e for e in op["entries"]]
            assert ledger.get_transaction(ledger.submit_tx(canonical_json(op), tx.submitter)).status == "VALID"
    ledger.cut_all()
    return ledger, f"quarantine/{config.producer}/{config.date}/{minute_index:04d}"


def test_quarantine_records_that_differ_from_the_replay_fail_the_audit(flagged_day, tmp_path):
    # the audit once checked only which keys exist
    config = flagged_day
    replay = replay_day(config.collector_roots, config.date, config.rules, config.producer)
    baseline = replay_verify(
        config.collector_roots, pipeline.open_ledger(config), config.date, config.producer, config.rules, replay
    )
    assert baseline.passed and baseline.quarantine_summary["on_chain_entries"] == 206
    minutes = sorted((audit._epoch(m) % 86400) // 60 for m in replay.flagged_minutes)
    rng = random.Random(15)
    detected = 0
    for trial in range(20):
        minute_index = rng.choice(minutes)
        if trial % 2 == 0:
            changes, part = {"codes": ["FAKE"]}, "codes"
        else:
            changes, part = {"aggregate": {"x": 1}}, "aggregate"
        ledger, key = _chain_with_changed_quarantine_record(config, tmp_path / str(trial), minute_index, **changes)
        report = replay_verify(config.collector_roots, ledger, config.date, config.producer, config.rules, replay)
        assert report.chain_ok
        if not report.passed and [(m.stage, m.key) for m in report.mismatches] == [("quarantine", f"{key}:{part}")]:
            detected += 1
    assert detected == 20


def test_another_producers_quarantine_records_leave_the_audit_passing(flagged_day, tmp_path):
    # a second producer's VALID quarantine op used to replace the audited
    # producer's record of the same minute; it now files records of its own
    config = flagged_day
    chain = tmp_path / "chain"
    shutil.copytree(config.chain_root, chain)
    emission, rules, members = pipeline.chain_parameters(chain)
    contract = CreditContract(emission=emission, rules=rules)
    ledger = Ledger(chain, contract, str(CONTRACT_VERSION), [*members, make_identity("plant-2", Role.PRODUCER)])
    records = ledger.state_items(f"quarantine/{config.producer}/")
    key, record = next(iter(records.items()))
    entry = {**json.loads(record), "codes": ["FAKE"]}
    op = canonical_json({"op": "quarantine", "date": config.date, "entries": [entry]})
    assert ledger.get_transaction(ledger.submit_tx(op, "plant-2")).status == "VALID"
    ledger.cut_all()
    assert ledger.state_items(f"quarantine/{config.producer}/") == records
    assert list(ledger.state_items("quarantine/plant-2/")) == [key.replace(config.producer, "plant-2", 1)]
    replay = replay_day(config.collector_roots, config.date, config.rules, config.producer)
    report = replay_verify(config.collector_roots, ledger, config.date, config.producer, config.rules, replay)
    assert report.passed and report.quarantine_summary["on_chain_entries"] == 206


def test_excluded_minutes_are_checked_against_the_replayed_flagged_minutes(flagged_day, tmp_path):
    # nothing compared the credit's excluded minutes with the replay
    config = flagged_day
    home = tmp_path / "copy"
    shutil.copytree(config.chain_root, home / "chain")
    ledger = pipeline.open_ledger(pipeline.RunConfig(home=home))
    op = canonical_json({"op": "accrue", "producer": config.producer, "date": config.date})
    assert ledger.get_transaction(ledger.submit_tx(op, config.producer)).status == "VALID"
    ledger.cut_all()
    replay = replay_day(config.collector_roots, config.date, config.rules, config.producer)
    report = replay_verify(config.collector_roots, ledger, config.date, config.producer, config.rules, replay)
    assert report.passed
    serial = report.credit_summary["serial"]
    # perturb the replay: one flagged minute fewer
    broken = dataclasses.replace(replay, flagged_minutes=replay.flagged_minutes[1:])
    report = replay_verify(config.collector_roots, ledger, config.date, config.producer, config.rules, broken)
    assert not report.passed
    assert [(m.stage, m.key) for m in report.mismatches] == [("credit", f"{serial}:excluded_minutes")]
    assert report.mismatches[0].expected == digest_hex(audit._canon(broken.flagged_minutes).encode())


def test_the_credit_is_checked_at_the_given_factor(audited):
    # the audit used to recompute co2_kg at the credit's own factor_used
    config, ledger, replay = audited
    if ledger.query_state(f"accrual/{config.producer}/{config.date}") is None:
        op = canonical_json({"op": "accrue", "producer": config.producer, "date": config.date})
        assert ledger.get_transaction(ledger.submit_tx(op, config.producer)).status == "VALID"
        ledger.cut_all()
    at_chain_factor = replay_verify(
        config.collector_roots, ledger, config.date, config.producer, RULES, replay, EmissionConfig()
    )
    assert at_chain_factor.passed
    other = replay_verify(
        config.collector_roots, ledger, config.date, config.producer, RULES, replay,
        EmissionConfig(factor_kg_per_kwh=0.5),
    )
    serial = other.credit_summary["serial"]
    assert [m.key for m in other.mismatches] == [f"{serial}:co2_kg", f"{serial}:factor_used"]
    assert other.mismatches[1].expected == "0.5" and other.mismatches[1].found == "0.4"


# -- the replay forked beside the chain check ---------------------------------


def _forks(monkeypatch, cpus):
    """Patch the audit to see ``cpus`` usable CPUs; return the list of the
    replay processes it starts (``model.Forked``), appended as they start."""
    started = []

    class Counted(audit.Forked):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)

    monkeypatch.setattr(audit, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(audit, "Forked", Counted)
    monkeypatch.setattr(audit, "_FORK_MIN_TXS", 0)  # the day's chain is shorter
    return started


def _changed(path, change):
    """Rewrite ``path`` by ``change`` of its bytes; return the bytes to restore."""
    original = path.read_bytes()
    path.write_bytes(change(original))
    return original


def _extra_cells(raw):
    lines = raw.decode().splitlines()
    lines[3] += ",junk,more"
    return ("\n".join(lines) + "\n").encode()


def _flipped(raw):
    mutated = bytearray(raw)
    mutated[len(mutated) // 2] ^= 0x01
    return bytes(mutated)


@pytest.mark.parametrize("case", ["clean", "missing-data", "extra-cells", "tampered-block"])
def test_a_forked_replay_gives_the_report_an_in_process_one_gives(audited, tmp_path, monkeypatch, case):
    config, ledger, _ = audited
    roots = [tmp_path / "nothing"] if case == "missing-data" else config.collector_roots
    target, change = {
        "extra-cells": (config.collector_roots[0] / config.date / "SEM1.csv", _extra_cells),
        "tampered-block": (ledger.blocks_dir / "3.json", _flipped),
    }.get(case, (None, None))
    original = target and _changed(target, change)
    try:
        emitted = []
        for cpus in (1, 2):
            started = _forks(monkeypatch, cpus)
            report = replay_verify(roots, ledger, config.date, config.producer, RULES)
            assert len(started) == cpus - 1
            paths = emit_report(report, tmp_path / f"cpus-{cpus}")
            emitted.append([p.read_bytes() for p in paths])
    finally:
        if target:
            target.write_bytes(original)
    assert emitted[0] == emitted[1]
    headline = emitted[0][1].decode().splitlines()[0]
    assert headline == f"AUDIT {'PASS' if case == 'clean' else 'FAIL'} {config.date}"
    notices = json.loads(emitted[0][0])["notices"]
    assert [n.split(":")[0] for n in notices] == {"missing-data": ["MissingData"], "extra-cells": ["UnreadableCsv"]}.get(case, [])
    assert json.loads(emitted[0][0])["first_bad_height"] == (3 if case == "tampered-block" else None)


def test_nothing_is_forked_on_one_cpu_with_a_replay_given_or_for_a_short_chain(audited, monkeypatch):
    config, ledger, replay = audited
    started = _forks(monkeypatch, 1)
    assert replay_verify(config.collector_roots, ledger, config.date, config.producer, RULES).passed
    started += _forks(monkeypatch, 2)
    assert replay_verify(config.collector_roots, ledger, config.date, config.producer, RULES, replay=replay).passed
    monkeypatch.setattr(audit, "_FORK_MIN_TXS", ledger.transaction_count + 1)
    assert replay_verify(config.collector_roots, ledger, config.date, config.producer, RULES).passed
    assert started == []
    monkeypatch.setattr(audit, "_FORK_MIN_TXS", ledger.transaction_count)
    assert replay_verify(config.collector_roots, ledger, config.date, config.producer, RULES).passed
    assert len(started) == 1


def test_an_audit_checks_the_chain_once(audited, monkeypatch):
    config, ledger, _ = audited
    calls = []
    verify = ledger.verify_chain
    monkeypatch.setattr(ledger, "verify_chain", lambda: calls.append(1) or verify())
    for cpus in (1, 2):
        _forks(monkeypatch, cpus)
        assert replay_verify(config.collector_roots, ledger, config.date, config.producer, RULES).passed
        assert len(calls) == 1
        calls.clear()


def test_a_failing_chain_check_leaves_no_replay_process(audited, monkeypatch):
    config, ledger, _ = audited
    started = _forks(monkeypatch, 2)

    def broken():
        raise RuntimeError("verify_chain failed")

    monkeypatch.setattr(ledger, "verify_chain", broken)
    with pytest.raises(RuntimeError, match="verify_chain failed"):
        replay_verify(config.collector_roots, ledger, config.date, config.producer, RULES)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_a_replay_whose_process_dies_or_cannot_start_runs_here(audited, tmp_path, monkeypatch):
    config, ledger, _ = audited
    expected = replay_verify(config.collector_roots, ledger, config.date, config.producer, RULES)
    parent, replay_here = os.getpid(), audit.replay_day

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return replay_here(*args)

    started = _forks(monkeypatch, 2)
    monkeypatch.setattr(audit, "replay_day", dies_in_a_child)
    died = replay_verify(config.collector_roots, ledger, config.date, config.producer, RULES)
    assert [p._process.exitcode for p in started] == [3]

    def no_fork(*args):
        raise ValueError("cannot find context for 'fork'")

    monkeypatch.setattr(audit, "Forked", no_fork)
    unforked = replay_verify(config.collector_roots, ledger, config.date, config.producer, RULES)
    assert expected.passed and died == expected and unforked == expected
    assert multiprocessing.active_children() == []
