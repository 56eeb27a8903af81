import base64
import json
import multiprocessing
import random
from datetime import datetime, timezone
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from carboncert import chaincode, model
from carboncert import ledger as ledger_mod
from carboncert.aggregator import AnomalyRules
from carboncert.chaincode import (
    CONTRACT_VERSION,
    LEGAL_STEPS,
    CreditContract,
    FactorOutOfRange,
    NegativePower,
    NonPositiveDuration,
    compute_co2,
    compute_energy,
    validate_batch,
)
from carboncert.ledger import Ledger, StateView, make_identity
from carboncert.model import (
    WINDOWS_PER_DAY,
    EmissionConfig,
    Identity,
    Quality,
    Role,
    batch_bytes,
    canonical_json,
    compact_date,
    format_ts,
    parse_date,
    parse_ts,
)

DAY0 = parse_date("2025-06-01")


# -- conversion formulas -----------------------------------------------------


def test_compute_energy_reference_values():
    assert compute_energy(60000.0, 1) == pytest.approx(1.0, abs=1e-12)
    assert compute_energy(100000.0, 60) == pytest.approx(100.0, abs=1e-9)
    assert compute_energy(0.0, 5) == 0.0


def test_compute_energy_fraction_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        p = rng.uniform(0, 110_000)
        d = rng.uniform(0.1, 1440)
        oracle = Fraction(p) * Fraction(d) / 60000
        assert compute_energy(p, d) == pytest.approx(float(oracle), rel=1e-12)


def test_compute_energy_domain_errors():
    with pytest.raises(NegativePower):
        compute_energy(-1.0, 5)
    with pytest.raises(NonPositiveDuration):
        compute_energy(100.0, 0)
    with pytest.raises(NonPositiveDuration):
        compute_energy(100.0, -3)


def test_compute_co2_reference_and_bounds():
    cfg = EmissionConfig()
    assert compute_co2(100.0, cfg) == pytest.approx(40.0, abs=1e-9)
    assert compute_co2(0.0, cfg) == 0.0
    with pytest.raises(NegativePower):
        compute_co2(-0.1, cfg)
    bad = EmissionConfig()
    bad.factor_kg_per_kwh = 2.0  # bypass constructor guard
    with pytest.raises(FactorOutOfRange):
        compute_co2(1.0, bad)


# -- fixtures ----------------------------------------------------------------


@pytest.fixture
def env(tmp_path):
    producer = make_identity("plant-1", Role.PRODUCER)
    certifier = make_identity("certifier-1", Role.CERTIFIER)
    auditor = make_identity("auditor-1", Role.AUDITOR)
    others = [make_identity(name, Role.PRODUCER) for name in ("plant-2", "plant-10")]
    members = [producer, certifier, auditor, *others]
    ledger = Ledger(tmp_path / "chain", CreditContract(), str(CONTRACT_VERSION), members)
    return ledger, producer, certifier, auditor


def _agg_dict(minute, power=24000.0, quality="OK", flags=None, voltage=230.0, freq=50.0):
    return {
        "minute_start": format_ts(minute),
        "total_power": power,
        "avg_voltage": voltage,
        "avg_frequency": freq,
        "phase_count": 24,
        "quality": quality,
        "flags": flags or [],
    }


def _batch_dict(window=0, producer="plant-1", n=5, power=24000.0, day=DAY0, **kw):
    start = day + window * 300
    return {
        "batch_id": f"{producer}-{compact_date(day)}-{window:03d}",
        "window_start": format_ts(start),
        "window_end": format_ts(start + 300),
        "producer_id": producer,
        "schema_version": 1,
        "aggregates": [_agg_dict(start + 60 * i, power, **kw) for i in range(n)],
    }


def _submit(ledger, op, who):
    return ledger.get_transaction(ledger.submit_tx(canonical_json(op), who))


def _submit_batch(ledger, batch, who="plant-1"):
    return _submit(ledger, {"op": "submit_batch", "batch": batch}, who)


# -- batch validation --------------------------------------------------------


def test_valid_batch_committed(env):
    ledger, *_ = env
    tx = _submit_batch(ledger, _batch_dict(0))
    assert tx.status == "VALID"
    assert ledger.query_state("batch/plant-1/plant-1-20250601-000") is not None
    head = json.loads(ledger.query_state("head/plant-1").decode())
    assert head["window_end"] == format_ts(DAY0 + 300)


def test_structure_rejections(env):
    ledger, *_ = env
    bad = _batch_dict(0)
    del bad["schema_version"]
    assert _submit_batch(ledger, bad).reason == "structure"
    bad = _batch_dict(0, n=5)
    bad["aggregates"].append(_agg_dict(DAY0 + 299))
    assert _submit_batch(ledger, bad).reason == "structure"
    bad = _batch_dict(0)
    bad["aggregates"][0]["quality"] = "GREAT"
    assert _submit_batch(ledger, bad).reason == "structure"
    bad = _batch_dict(0)
    bad["aggregates"][0]["total_power"] = "lots"
    assert _submit_batch(ledger, bad).reason == "structure"
    for unhashable in ([], {}):  # a quality that cannot be looked up used to raise TypeError out of submit_tx
        bad = _batch_dict(0)
        bad["aggregates"][0]["quality"] = unhashable
        assert _submit_batch(ledger, bad).reason == "structure"


def test_duplicate_rejection(env):
    ledger, *_ = env
    batch = _batch_dict(3)
    assert _submit_batch(ledger, batch).status == "VALID"
    tx = _submit_batch(ledger, batch)
    assert tx.status == "INVALID" and tx.reason == "duplicate"


def test_timestamp_rejections(env):
    ledger, *_ = env
    bad = _batch_dict(0)
    bad["window_end"] = format_ts(DAY0 + 600)  # not start + 300
    assert _submit_batch(ledger, bad).reason == "timestamps"
    bad = _batch_dict(0)
    bad["batch_id"] = "plant-1-20250601-007"  # id does not match window
    assert _submit_batch(ledger, bad).reason == "timestamps"
    bad = _batch_dict(0)
    bad["aggregates"][1]["minute_start"] = bad["aggregates"][0]["minute_start"]
    assert _submit_batch(ledger, bad).reason == "timestamps"
    bad = _batch_dict(0)
    bad["aggregates"][0]["minute_start"] = format_ts(DAY0 + 400)  # outside window
    assert _submit_batch(ledger, bad).reason == "timestamps"
    bad = _batch_dict(0)
    bad["window_start"] = "June first"
    assert _submit_batch(ledger, bad).reason == "timestamps"
    bad = _batch_dict(0)
    bad["window_start"] = "2025-06-01T00:00:0\u0660Z"  # an Arabic-Indic zero
    assert _submit_batch(ledger, bad).reason == "timestamps"
    bad = _batch_dict(0)
    bad["aggregates"][1]["minute_start"] = "2025-06-01T00:01:0\u0660Z"
    assert _submit_batch(ledger, bad).reason == "timestamps"


def test_head_monotonicity(env):
    ledger, *_ = env
    assert _submit_batch(ledger, _batch_dict(5)).status == "VALID"
    # earlier window after a later head: rejected
    assert _submit_batch(ledger, _batch_dict(2)).reason == "timestamps"
    # contiguous next window: accepted
    assert _submit_batch(ledger, _batch_dict(6)).status == "VALID"
    # gap forward: accepted (gap handled by report_missing)
    assert _submit_batch(ledger, _batch_dict(9)).status == "VALID"


def test_range_rejections(env):
    ledger, *_ = env
    assert _submit_batch(ledger, _batch_dict(0, power=120_000.0)).reason == "ranges"
    assert _submit_batch(ledger, _batch_dict(0, power=-5.0)).reason == "ranges"
    assert _submit_batch(ledger, _batch_dict(0, voltage=300.0)).reason == "ranges"
    assert _submit_batch(ledger, _batch_dict(0, freq=51.0)).reason == "ranges"
    # flagged minutes are carried but not range-enforced
    tx = _submit_batch(
        ledger, _batch_dict(0, power=120_000.0, quality="FLAGGED", flags=["RANGE_POWER"])
    )
    assert tx.status == "VALID"


def test_unauthorized_submissions(env):
    ledger, *_ = env
    assert _submit_batch(ledger, _batch_dict(0), "certifier-1").reason == "unauthorized"
    assert _submit_batch(ledger, _batch_dict(0), "auditor-1").reason == "unauthorized"
    # producer submitting under another producer_id
    assert _submit_batch(ledger, _batch_dict(0, producer="plant-2")).reason == "unauthorized"


def test_rejection_reasons_surface_with_history_growth(env):
    ledger, *_ = env
    key = "batch/plant-1/plant-1-20250601-000"
    _submit_batch(ledger, _batch_dict(0))
    before = len(ledger.get_history(key))
    tx = _submit_batch(ledger, _batch_dict(0))
    assert tx.reason == "duplicate"
    assert len(ledger.get_history(key)) == before + 1  # invalid tx still recorded


def test_validate_batch_direct_first_failure_wins(env):
    ledger, producer, *_ = env
    bad = _batch_dict(0, power=-5.0)
    bad["window_end"] = format_ts(DAY0 + 999)
    ok, reason = validate_batch(
        bad, producer, ledger.state_view(), CreditContract().rules, EmissionConfig()
    )
    assert (ok, reason) == (False, "timestamps")  # timestamps checked before ranges


# -- day helpers -------------------------------------------------------------


def _fill_day(ledger, windows=range(WINDOWS_PER_DAY), power=24000.0, flagged=()):
    for w in windows:
        batch = _batch_dict(w, power=power)
        if w in flagged:
            for agg in batch["aggregates"]:
                agg["quality"] = "FLAGGED"
                agg["flags"] = ["RANGE_POWER"]
        tx = _submit_batch(ledger, batch)
        assert tx.status == "VALID", tx.reason


def _accrue(ledger, who="plant-1", date="2025-06-01", producer="plant-1"):
    return _submit(ledger, {"op": "accrue", "producer": producer, "date": date}, who)


# -- accrual -----------------------------------------------------------------


def test_accrue_full_day(env):
    ledger, *_ = env
    _fill_day(ledger)
    tx = _accrue(ledger)
    assert tx.status == "VALID"
    credit = json.loads(ledger.query_state("credit/CC-plant-1-20250601-1").decode())
    assert credit["state"] == "PENDING"
    # 1440 minutes at 24 kW -> 576 kWh -> 230.4 kg at 0.4
    assert credit["energy_kwh"] == pytest.approx(24000.0 * 1440 / 60000.0, rel=1e-9)
    assert credit["co2_kg"] == pytest.approx(credit["energy_kwh"] * 0.4, rel=1e-9)
    assert credit["duration_min"] == 1440
    assert credit["excluded_minutes"] == []


def test_accrue_requires_all_windows_resolved(env):
    ledger, *_ = env
    _fill_day(ledger, range(100))
    tx = _accrue(ledger)
    assert tx.reason == "unresolved_windows"
    missing = {"op": "report_missing", "producer": "plant-1", "date": "2025-06-01",
               "windows": list(range(100, WINDOWS_PER_DAY))}
    assert _submit(ledger, missing, "plant-1").status == "VALID"
    assert _accrue(ledger).status == "VALID"


def test_accrue_excludes_flagged_minutes(env):
    ledger, *_ = env
    _fill_day(ledger, flagged={0, 1})
    tx = _accrue(ledger)
    assert tx.status == "VALID"
    credit = json.loads(ledger.query_state("credit/CC-plant-1-20250601-1").decode())
    assert credit["duration_min"] == 1430
    assert len(credit["excluded_minutes"]) == 10
    assert credit["energy_kwh"] == pytest.approx(24000.0 * 1430 / 60000.0, rel=1e-9)


def test_accrue_double_counting_prevented(env):
    ledger, *_ = env
    _fill_day(ledger)
    assert _accrue(ledger).status == "VALID"
    assert _accrue(ledger).reason == "already_accrued"
    for spelling in ("2025-6-1", "2025-06-1"):  # the same day, spelled another way
        tx = _accrue(ledger, date=spelling)
        assert (tx.status, tx.reason) == ("INVALID", "structure")
    assert list(ledger.state_items("credit/")) == ["credit/CC-plant-1-20250601-1"]


def test_accrue_counts_only_its_own_producer_and_date(env):
    ledger, *_ = env
    for w in range(WINDOWS_PER_DAY):
        other = _batch_dict(w, producer="plant-10", power=9000.0)
        assert _submit_batch(ledger, other, "plant-10").status == "VALID"
    expected = 0.0
    for w in range(WINDOWS_PER_DAY):
        power = 20000.0 + 7.125 * w
        assert _submit_batch(ledger, _batch_dict(w, power=power)).status == "VALID"
        for _ in range(5):
            expected += compute_energy(power, 1)  # window by window, as accrue sums
    for w in range(3):  # the next day's first windows
        next_day = _batch_dict(w, power=50000.0, day=DAY0 + 86400)
        assert _submit_batch(ledger, next_day).status == "VALID"
    assert _accrue(ledger).status == "VALID"
    credit = json.loads(ledger.query_state("credit/CC-plant-1-20250601-1").decode())
    assert credit["duration_min"] == 1440
    assert credit["energy_kwh"] == expected
    assert _accrue(ledger, date="2025-06-02").reason == "unresolved_windows"
    assert _accrue(ledger, who="plant-10", producer="plant-10").status == "VALID"
    other_credit = json.loads(ledger.query_state("credit/CC-plant-10-20250601-1").decode())
    assert other_credit["duration_min"] == 1440
    assert other_credit["energy_kwh"] == pytest.approx(9000.0 * 1440 / 60000.0, rel=1e-9)


def test_accrue_no_valid_energy(env):
    ledger, *_ = env
    _fill_day(ledger, flagged=set(range(WINDOWS_PER_DAY)))
    assert _accrue(ledger).reason == "no_valid_energy"


def test_accrue_unauthorized(env):
    ledger, *_ = env
    _fill_day(ledger)
    assert _accrue(ledger, who="certifier-1").reason == "unauthorized"


def test_report_missing_validation(env):
    ledger, *_ = env
    bad = {"op": "report_missing", "producer": "plant-1", "date": "2025-06-01", "windows": [999]}
    assert _submit(ledger, bad, "plant-1").reason == "structure"
    other = {"op": "report_missing", "producer": "plant-2", "date": "2025-06-01", "windows": [1]}
    assert _submit(ledger, other, "plant-1").reason == "unauthorized"
    entry = {"minute_start": format_ts(DAY0 + 60), "codes": ["RAMP"]}
    for date in ("2025-6-1", "2025-06-1", "2025-06-01\n", "2025-06-0\u0661", 20250601):
        report = {"op": "report_missing", "producer": "plant-1", "date": date, "windows": [1]}
        assert _submit(ledger, report, "plant-1").reason == "structure"
        quarantine = {"op": "quarantine", "date": date, "entries": [entry]}
        assert _submit(ledger, quarantine, "plant-1").reason == "structure"
    quarantine = {"op": "quarantine", "date": "2025-06-01", "entries": [entry]}
    assert _submit(ledger, quarantine, "plant-1").status == "VALID"
    assert ledger.state_items("missing/") == {}


def test_report_missing_never_replaces_committed_data(env):
    ledger, *_ = env
    _submit_batch(ledger, _batch_dict(0))
    report = {"op": "report_missing", "producer": "plant-1", "date": "2025-06-01"}
    assert _submit(ledger, {**report, "windows": [0, 1]}, "plant-1").reason == "window_committed"
    assert _submit(ledger, {**report, "windows": [1, 2]}, "plant-1").status == "VALID"
    assert _submit(ledger, {**report, "windows": [3]}, "plant-1").reason == "already_reported"
    assert json.loads(ledger.query_state("missing/plant-1/2025-06-01"))["windows"] == [1, 2]
    assert len(ledger.get_history("missing/plant-1/2025-06-01")) == 3
    not_a_date = {**report, "date": "June 1st", "windows": [1]}
    assert _submit(ledger, not_a_date, "plant-1").reason == "structure"


# -- credit lifecycle --------------------------------------------------------


@pytest.fixture
def credited(env):
    ledger, producer, certifier, auditor = env
    _fill_day(ledger)
    assert _accrue(ledger).status == "VALID"
    return ledger, "CC-plant-1-20250601-1"


def _step(ledger, op, serial, who, **extra):
    return _submit(ledger, {"op": op, "serial": serial, **extra}, who)


def test_lifecycle_happy_path_to_retired(credited):
    ledger, serial = credited
    assert _step(ledger, "credit_verify", serial, "certifier-1").status == "VALID"
    assert _step(ledger, "credit_issue", serial, "certifier-1").status == "VALID"
    tx = _step(ledger, "credit_transition", serial, "plant-1", target="RETIRED")
    assert tx.status == "VALID"
    credit = json.loads(ledger.query_state(f"credit/{serial}").decode())
    assert credit["state"] == "RETIRED"
    assert credit["certifier"] == "certifier-1"


def test_lifecycle_sold_blocks_retired(credited):
    ledger, serial = credited
    _step(ledger, "credit_verify", serial, "certifier-1")
    _step(ledger, "credit_issue", serial, "certifier-1")
    assert _step(ledger, "credit_transition", serial, "plant-1", target="SOLD").status == "VALID"
    tx = _step(ledger, "credit_transition", serial, "plant-1", target="RETIRED")
    assert tx.reason == "illegal_transition"


def test_lifecycle_no_skipping(credited):
    ledger, serial = credited
    assert _step(ledger, "credit_issue", serial, "certifier-1").reason == "illegal_transition"
    assert (
        _step(ledger, "credit_transition", serial, "plant-1", target="SOLD").reason
        == "illegal_transition"
    )


def test_lifecycle_role_gates(credited):
    ledger, serial = credited
    assert _step(ledger, "credit_verify", serial, "plant-1").reason == "unauthorized"
    assert _step(ledger, "credit_verify", serial, "auditor-1").reason == "unauthorized"
    _step(ledger, "credit_verify", serial, "certifier-1")
    _step(ledger, "credit_issue", serial, "certifier-1")
    tx = _step(ledger, "credit_transition", serial, "certifier-1", target="SOLD")
    assert tx.reason == "unauthorized"


def test_lifecycle_unknown_credit(credited):
    ledger, _ = credited
    assert _step(ledger, "credit_verify", "CC-ghost-1", "certifier-1").reason == "unknown_credit"


def test_legal_steps_table_is_a_dag_with_two_terminals():
    assert set(LEGAL_STEPS) == {"PENDING", "VERIFIED", "ISSUED", "SOLD", "RETIRED"}
    assert LEGAL_STEPS["SOLD"] == () and LEGAL_STEPS["RETIRED"] == ()
    assert set(LEGAL_STEPS["ISSUED"]) == {"SOLD", "RETIRED"}


def test_unknown_op_is_structure(env):
    ledger, *_ = env
    assert _submit(ledger, {"op": "mint_money"}, "plant-1").reason == "structure"


def test_quarantine_refuses_entries_off_its_date_or_minute(env):
    ledger, *_ = env
    for minute_start in (DAY0 - 60, DAY0 + 86400, DAY0 + 4 * 86400 + 60, DAY0 + 61):
        entry = {"minute_start": format_ts(minute_start), "codes": ["RAMP"]}
        quarantine = {"op": "quarantine", "date": "2025-06-01", "entries": [entry]}
        assert _submit(ledger, quarantine, "plant-1").reason == "timestamps"
    last = {"minute_start": format_ts(DAY0 + 86400 - 60), "codes": ["RAMP"]}
    quarantine = {"op": "quarantine", "date": "2025-06-01", "entries": [last]}
    assert _submit(ledger, quarantine, "plant-1").status == "VALID"
    assert list(ledger.state_items("quarantine/")) == ["quarantine/plant-1/2025-06-01/1439"]


def test_a_quarantine_record_is_never_replaced(env):
    # two ops of plant-1 and one of plant-2 for 10:00 were all VALID, and only
    # quarantine/2025-06-01/0600 was left, holding plant-2's codes
    ledger, *_ = env

    def quarantine(codes, minute="10:00", date="2025-06-01"):
        return {"op": "quarantine", "date": date, "entries": [{"minute_start": f"{date}T{minute}:00Z", "codes": codes}]}

    assert _submit(ledger, quarantine(["RAMP"]), "plant-1").status == "VALID"
    for op in (quarantine(["RANGE_POWER"]), quarantine(["RANGE_POWER"], minute="10:01")):
        tx = _submit(ledger, op, "plant-1")
        assert (tx.status, tx.reason) == ("INVALID", "already_reported")
    assert _submit(ledger, quarantine(["PF_BOUNDS"]), "plant-2").status == "VALID"
    assert _submit(ledger, quarantine(["RAMP"], date="2025-06-02"), "plant-1").status == "VALID"
    assert _submit(ledger, {**quarantine([], date="2025-06-03"), "entries": []}, "plant-1").reason == "structure"
    assert {key: json.loads(value)["codes"] for key, value in ledger.state_items("quarantine/").items()} == {
        "quarantine/plant-1/2025-06-01/0600": ["RAMP"],
        "quarantine/plant-1/2025-06-02/0600": ["RAMP"],
        "quarantine/plant-2/2025-06-01/0600": ["PF_BOUNDS"],
    }


def test_a_quarantine_op_naming_a_minute_twice_is_invalid(env):
    # it was VALID and kept one record, holding the last entry's codes
    ledger, *_ = env
    entries = [{"minute_start": "2025-06-01T10:00:00Z", "codes": codes} for codes in (["RAMP"], ["PF_BOUNDS"])]
    tx = _submit(ledger, {"op": "quarantine", "date": "2025-06-01", "entries": entries}, "plant-1")
    assert (tx.status, tx.reason) == ("INVALID", "structure")
    assert list(ledger.state_items("quarantine/")) == []
    tx = _submit(ledger, {"op": "quarantine", "date": "2025-06-01", "entries": entries[1:]}, "plant-1")
    assert tx.status == "VALID"


def test_a_chain_holding_a_replacing_quarantine_op_opens_damaged_at_its_block(tmp_path):
    # such a chain was written before a producer filed a date's records once
    members = [make_identity("plant-1", Role.PRODUCER)]
    forgetful = CreditContract()  # takes every quarantine op as the date's first
    forgetful._handlers["quarantine"] = lambda op, who, state: forgetful._quarantine(op, who, StateView({}, bytes))
    ledger = Ledger(tmp_path / "chain", forgetful, str(CONTRACT_VERSION - 1), members)
    for codes in (["RAMP"], ["RANGE_POWER"]):
        entry = {"minute_start": "2025-06-01T10:00:00Z", "codes": codes}
        op = {"op": "quarantine", "date": "2025-06-01", "entries": [entry]}
        assert _submit(ledger, op, "plant-1").status == "VALID"
        ledger.cut_all()
    reopened = Ledger(tmp_path / "chain", CreditContract(), str(CONTRACT_VERSION), members)
    height, why = reopened.damage
    assert height == 2 and why.endswith("replays INVALID (already_reported), recorded VALID (None)")
    assert reopened.verify_chain() == 2


# -- quarantine records changed on disk ---------------------------------------
#
# 40 dates' quarantine ops cut 12/12/12/4 into blocks 1-4; a split re-execution
# (the ``split`` fixture) re-executes blocks 0-2 here and checks blocks 3-4 in
# a forked process, so height 2 is changed in this process's part and height 3
# in the other's.

_QUARANTINE_DAYS = 40


def _quarantine_chain(root):
    members = [make_identity("plant-1", Role.PRODUCER)]
    ledger = Ledger(root, CreditContract(), str(CONTRACT_VERSION), members)
    for day in range(_QUARANTINE_DAYS):
        date = format_ts(DAY0 + day * 86400)[:10]
        entries = [{"minute_start": f"{date}T{hour}:00:00Z", "codes": ["RAMP"]} for hour in ("06", "10")]
        assert _submit(ledger, {"op": "quarantine", "date": date, "entries": entries}, "plant-1").status == "VALID"
    ledger.cut_all()
    assert ledger.height == 4
    return members


def _first_quarantine_key(root, height):
    """The key of the first record that block ``height``'s first op files."""
    op = json.loads(ledger_mod._read_block(root / "blocks" / f"{height}.json")[1].transactions[0].payload)
    return f"quarantine/plant-1/{op['date']}/0360"


@pytest.mark.parametrize("height", [2, 3])
def test_a_quarantine_record_resealed_in_its_journal_is_found_by_verify_chain(tmp_path, split, savepoint, height):
    root = tmp_path / "chain"
    members = _quarantine_chain(root)
    key = _first_quarantine_key(root, height)
    path = root / "writes" / f"{height}.json"
    content = json.loads(path.read_bytes())
    forged = canonical_json({"minute_start": "2025-06-01T06:00:00Z", "codes": ["FAKE"]})
    content["body"]["txs"][0]["writes"][key] = base64.b64encode(forged).decode()
    path.write_bytes(ledger_mod._journal_file(canonical_json(content["body"])))
    ledger = Ledger(root, CreditContract(), str(CONTRACT_VERSION), members)
    assert ledger.damage is None and ledger.query_state(key) == forged  # the open applied it unseen
    assert ledger.verify_chain() == height
    assert ledger.damage[1].endswith("replays other writes than its journal holds")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("height", [2, 3])
def test_a_quarantine_record_changed_in_its_block_payload_is_damage_at_open(tmp_path, split, savepoint, height):
    root = tmp_path / "chain"
    members = _quarantine_chain(root)
    path = root / "blocks" / f"{height}.json"
    raw = path.read_bytes()
    text = json.loads(raw)["transactions"][0]["payload_b64"]
    payload = base64.b64decode(text).replace(b'"RAMP"', b'"FAKE"', 1)
    path.write_bytes(raw.replace(text.encode(), base64.b64encode(payload), 1))
    ledger = Ledger(root, CreditContract(), str(CONTRACT_VERSION), members)
    assert ledger.damage == (height, "block file does not hash to the block_hash it carries")
    assert ledger.verify_chain() == height
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("height", [2, 3])
def test_a_quarantine_record_resealed_up_to_the_tip_is_found_by_the_re_execution(
    tmp_path, reseal_up_to_the_tip, split, savepoint, height
):
    # the record's minute moved to the next day, in the payload only: the
    # journal's slices still fit it, so the open applies them, and the op
    # replays INVALID where the block records it VALID
    root = tmp_path / "chain"
    members = _quarantine_chain(root)

    def move_a_minute(content):
        tx = content["transactions"][0]
        op = json.loads(base64.b64decode(tx["payload_b64"]))
        date = op["entries"][0]["minute_start"][:10]
        next_day = format_ts(parse_date(date) + 86400)[:10]
        payload = base64.b64decode(tx["payload_b64"]).replace(f"{date}T06".encode(), f"{next_day}T06".encode())
        tx["payload_b64"] = base64.b64encode(payload).decode()

    reseal_up_to_the_tip(root, height, move_a_minute)
    ledger = Ledger(root, CreditContract(), str(CONTRACT_VERSION), members)
    assert ledger.damage is None
    assert ledger.verify_chain() == height
    assert ledger.damage[1].endswith("replays INVALID (timestamps), recorded VALID (None)")
    assert multiprocessing.active_children() == []


_PRODUCERS = ("plant-1", "plant-2")
_DAYS = ("2025-06-01", "2025-06-02")


@st.composite
def _producer_ops(draw):
    """An op of either producer, or of the certifier, over two dates and a few
    windows and minutes, naming either producer where an op names one."""
    who = draw(st.sampled_from(_PRODUCERS))
    named = draw(st.sampled_from([who, who, who, *_PRODUCERS]))
    date = draw(st.sampled_from(_DAYS))
    day0 = parse_date(date)
    kind = draw(st.sampled_from(["submit_batch", "report_missing", "quarantine", "accrue", "credit", "certify"]))
    serial = f"CC-{named}-{compact_date(day0)}-1"
    if kind == "submit_batch":
        op = {"op": kind, "batch": _batch_dict(draw(st.integers(0, 1)), producer=named, day=day0)}
    elif kind == "report_missing":
        kept = draw(st.sampled_from([{0}, {0, 1}]))
        windows = [w for w in range(WINDOWS_PER_DAY) if w not in kept]
        op = {"op": kind, "producer": named, "date": date, "windows": windows}
    elif kind == "quarantine":
        minutes = draw(st.lists(st.sampled_from([0, 600]), min_size=1, max_size=2))
        codes = draw(st.sampled_from([["RAMP"], ["PF_BOUNDS"]]))
        entries = [{"minute_start": format_ts(day0 + 60 * m), "codes": codes} for m in minutes]
        op = {"op": kind, "date": date, "entries": entries}
    elif kind == "accrue":
        op = {"op": kind, "producer": named, "date": date}
    elif kind == "credit":
        op = {"op": "credit_transition", "serial": serial, "target": draw(st.sampled_from(["SOLD", "RETIRED"]))}
    else:
        who, op = "certifier-1", {"op": draw(st.sampled_from(["credit_verify", "credit_issue"])), "serial": serial}
    return who, op


def _one_credit(producer, date="2025-06-01"):
    """The ops that take a producer's credit of ``date`` to RETIRED, a quarantine op at 10:00 among them."""
    serial = f"CC-{producer}-{date.replace('-', '')}-1"
    return [
        (producer, {"op": "submit_batch", "batch": _batch_dict(0, producer=producer, day=parse_date(date))}),
        (producer, {"op": "report_missing", "producer": producer, "date": date, "windows": list(range(1, 288))}),
        (producer, {"op": "quarantine", "date": date, "entries": [{"minute_start": f"{date}T10:00:00Z", "codes": []}]}),
        (producer, {"op": "accrue", "producer": producer, "date": date}),
        ("certifier-1", {"op": "credit_verify", "serial": serial}),
        ("certifier-1", {"op": "credit_issue", "serial": serial}),
        (producer, {"op": "credit_transition", "serial": serial, "target": "RETIRED"}),
    ]


@given(ops=st.lists(_producer_ops(), max_size=40))
@example(ops=_one_credit("plant-1") + _one_credit("plant-2"))
def test_no_valid_op_of_one_producer_changes_a_key_the_others_ops_wrote(ops):
    contract = CreditContract()
    identities = {name: Identity(name, Role.PRODUCER, "k") for name in _PRODUCERS}
    identities["certifier-1"] = Identity("certifier-1", Role.CERTIFIER, "k")
    state, writer = {}, {}  # key -> value; key -> the producer whose op wrote it first
    for who, op in ops:
        result = contract(json.loads(canonical_json(op)), identities[who], StateView(state, lambda value: value))
        if not result.valid:
            continue
        if who in _PRODUCERS:
            for key in result.writes:
                assert writer.setdefault(key, who) == who, (key, op)
        state.update(result.writes)


_SERIAL = "CC-plant-1-20250601-1"
# the legal steps, each (op, submitter, extra op members), that bring a new credit to a state
_STEPS_TO = {
    "PENDING": (),
    "VERIFIED": (("credit_verify", "certifier-1", {}),),
    "ISSUED": (("credit_verify", "certifier-1", {}), ("credit_issue", "certifier-1", {})),
}
_STEPS_TO["SOLD"] = _STEPS_TO["ISSUED"] + (("credit_transition", "plant-1", {"target": "SOLD"}),)
_STEPS_TO["RETIRED"] = _STEPS_TO["ISSUED"] + (("credit_transition", "plant-1", {"target": "RETIRED"}),)
# op -> (the state it is taken from, a submitter allowed to take it, its extra op members)
_CREDIT_OPS = {
    "credit_verify": ("PENDING", "certifier-1", {}),
    "credit_issue": ("VERIFIED", "certifier-1", {}),
    "credit_transition": ("ISSUED", "plant-1", {"target": "SOLD"}),
}


def _credit_op_cases():
    """(op, credit state, submitter, op members, reason, lists the tx in the serial's history)."""
    for op, (legal_from, who, extra) in _CREDIT_OPS.items():
        yield op, legal_from, who, {"serial": _SERIAL, **extra}, None, True
        for serial in (7, None, ["x"]):
            yield op, legal_from, who, {"serial": serial, **extra}, "structure", False
        yield op, legal_from, who, {**extra}, "structure", False  # no serial at all
        yield op, legal_from, who, {"serial": "CC-ghost-1", **extra}, "unknown_credit", True
        for wrong in ("plant-1", "plant-2", "certifier-1", "auditor-1"):
            if wrong != who:
                yield op, legal_from, wrong, {"serial": _SERIAL, **extra}, "unauthorized", True
        for state in LEGAL_STEPS:
            if state != legal_from:
                yield op, state, who, {"serial": _SERIAL, **extra}, "illegal_transition", True
                # the role is checked before the step
                yield op, state, "auditor-1", {"serial": _SERIAL, **extra}, "unauthorized", True
    transition = "credit_transition"
    yield transition, "ISSUED", "plant-1", {"serial": _SERIAL, "target": "RETIRED"}, None, True
    for state in ("PENDING", "VERIFIED", "SOLD", "RETIRED"):
        yield transition, state, "plant-1", {"serial": _SERIAL, "target": "RETIRED"}, "illegal_transition", True
    for members in ({}, {"target": "BURNED"}, {"target": "ISSUED"}, {"target": None}, {"target": ["SOLD"]}):
        for who in ("plant-1", "plant-2", "certifier-1"):  # the target is checked before the role
            yield transition, "ISSUED", who, {"serial": _SERIAL, **members}, "structure", True
        yield transition, "PENDING", "plant-1", {"serial": _SERIAL, **members}, "structure", True
        yield transition, "ISSUED", "plant-1", {"serial": "CC-ghost-1", **members}, "unknown_credit", True
        yield transition, "ISSUED", "plant-1", {"serial": 7, **members}, "structure", False


@pytest.mark.parametrize("op,state,who,members,reason,in_history", list(_credit_op_cases()))
def test_credit_ops_reason_precedence(env, op, state, who, members, reason, in_history):
    ledger, *_ = env
    _fill_day(ledger, windows=(0,))
    missing = {"op": "report_missing", "producer": "plant-1", "date": "2025-06-01"}
    assert _submit(ledger, {**missing, "windows": list(range(1, WINDOWS_PER_DAY))}, "plant-1").status == "VALID"
    assert _accrue(ledger).status == "VALID"
    for step, step_who, step_extra in _STEPS_TO[state]:
        assert _step(ledger, step, _SERIAL, step_who, **step_extra).status == "VALID"
    before = ledger.query_state(f"credit/{_SERIAL}")

    tx = _submit(ledger, {"op": op, **members}, who)

    assert (tx.status, tx.reason) == (("VALID", None) if reason is None else ("INVALID", reason))
    listed = [t.tx_id for t in ledger.get_history(f"credit/{members.get('serial')}")]
    assert (tx.tx_id in listed) == in_history
    if not in_history:
        assert tx.tx_id not in [t.tx_id for t in ledger.get_history(f"credit/{_SERIAL}")]
    if reason is not None:
        assert ledger.query_state(f"credit/{_SERIAL}") == before
        return
    credit = json.loads(before.decode())
    credit["state"] = {"credit_verify": "VERIFIED", "credit_issue": "ISSUED"}.get(op, members.get("target"))
    if op == "credit_verify":
        credit["certifier"] = who
    assert ledger.query_state(f"credit/{_SERIAL}") == json.dumps(credit, sort_keys=True).encode()


# -- a batch's canonical bytes and timestamps, at one parse per window --------

_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_NUMBERS = (
    st.floats() | st.integers() | st.booleans() | st.sampled_from([-0.0, 1e17, -1e17, 0.0005, 0.0015, 2**64])
)
_AGGREGATES = st.fixed_dictionaries({
    "minute_start": _JSON_LEAVES,
    "total_power": _NUMBERS,
    "avg_voltage": st.none() | _NUMBERS,
    "avg_frequency": st.none() | _NUMBERS,
    "phase_count": st.integers(0, 24) | st.booleans(),
    "quality": st.sampled_from(["OK", "PARTIAL", "FLAGGED", Quality.OK, Quality.FLAGGED]),
    "flags": st.lists(
        st.recursive(
            _JSON_LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
            max_leaves=6,
        ),
        max_size=3,
    ),
})
_BATCHES = st.fixed_dictionaries({
    "batch_id": st.text(),
    "window_start": _JSON_LEAVES,
    "window_end": _JSON_LEAVES,
    "producer_id": st.text(),
    "schema_version": st.integers() | st.booleans(),
    "aggregates": st.lists(_AGGREGATES, max_size=5),
})


@given(batch=_BATCHES)
@example(batch=_batch_dict(3, power=-0.0, voltage=None))
@example(batch=_batch_dict(3, quality="FLAGGED", flags=["RAMP", ["n\u00e9sted", {"k": -0.0}]], power=1e17))
@example(batch={**_batch_dict(0, producer="pl\u00e4nt-\u2603", n=0), "schema_version": True})
def test_batch_bytes_are_the_canonical_json_of_a_structurally_valid_batch(batch):
    submitter = Identity(batch["producer_id"], Role.PRODUCER, "k")
    assert chaincode._check_structure(batch, submitter) is None
    assert batch_bytes(batch) == canonical_json(batch)


def _parsed(value):
    try:
        return parse_ts(value)
    except (TypeError, ValueError):
        return None


def _reference_timestamps(batch, state):
    """The timestamp check parsing every timestamp, the batch id's date by strftime."""
    start, end = _parsed(batch["window_start"]), _parsed(batch["window_end"])
    if start is None or end is None or start % 300 or end != start + 300:
        return "timestamps"
    day = datetime.fromtimestamp(start, tz=timezone.utc).strftime("%Y%m%d")
    if batch["batch_id"] != f"{batch['producer_id']}-{day}-{start % 86400 // 300:03d}":
        return "timestamps"
    prev = None
    for agg in batch["aggregates"]:
        minute = _parsed(agg["minute_start"])
        if minute is None or minute % 60 or not start <= minute < end or (prev is not None and minute <= prev):
            return "timestamps"
        prev = minute
    head = state.get("head/plant-1")
    if head is not None and start < parse_ts(json.loads(head)["window_end"]):
        return "timestamps"
    return None


def _spelled(epoch):
    """A timestamp's one spelling; its year has four digits, unlike format_ts's below year 1000."""
    moment = datetime.fromtimestamp(epoch, tz=timezone.utc)
    return f"{moment.year:04d}-{moment:%m-%dT%H:%M:%S}Z"


_NOT_TIMESTAMPS = st.sampled_from(["", "June first", "2025-02-30T00:00:00Z"]) | st.integers() | st.none() | st.lists(
    st.integers(), max_size=1
)


@st.composite
def _timestamped_batches(draw):
    """A well-formed batch of plant-1 and the head it meets, with at most one
    fault in its timestamps, batch id or head."""
    fault = draw(st.sampled_from(
        [None, "misaligned", "window_start", "window_end", "batch_id", "order", "outside", "minute", "head"]
    ))
    day0 = parse_date(draw(st.sampled_from(["2025-06-01", "0999-03-01", "2024-02-29", "2024-12-31", "1970-01-01"])))
    start = day0 + 300 * draw(st.integers(0, WINDOWS_PER_DAY - 1))
    if fault == "misaligned":
        start += draw(st.sampled_from([1, 60, 240]))

    def respelled(epoch):
        text = _spelled(epoch)
        return draw(st.sampled_from([
            text[:17] + "30Z",  # seconds other than 00
            _spelled(epoch - 86400)[:11] + "24" + text[13:],  # hour 24 of the day before
            text.replace("0", "\u0660", 1),  # an Arabic-Indic zero
        ]) | _NOT_TIMESTAMPS)

    end = start + (draw(st.sampled_from([0, 240, 299, 360, 600])) if fault == "window_end" else 300)
    window = start % 86400 // 300
    day = datetime.fromtimestamp(start, tz=timezone.utc).strftime("%Y%m%d")
    if fault == "batch_id":
        day, window = draw(st.sampled_from([
            (_spelled(start)[:10].replace("-", ""), window),  # four digits: not the id of a year below 1000
            (day, window + 1),
            (day.replace("1", "0"), window),
        ]))
    offsets = sorted(draw(st.sets(st.integers(0, 4))))
    if fault == "order":  # repeated or decreasing minutes, mostly
        offsets = draw(st.lists(st.integers(0, 4), min_size=2, max_size=5))
    if fault == "outside":
        offsets = sorted(draw(st.sets(st.integers(0, 4), max_size=4)) | {draw(st.sampled_from([-5, -1, 5, 6]))})
    minutes = [_spelled(start + 60 * k) for k in offsets]
    if fault == "minute" and minutes:
        i = draw(st.integers(0, len(minutes) - 1))
        minutes[i] = respelled(start + 60 * offsets[i])

    batch = _batch_dict(0, n=len(minutes))
    batch["batch_id"] = f"plant-1-{day}-{window:03d}"
    batch["window_start"] = respelled(start) if fault == "window_start" else _spelled(start)
    batch["window_end"] = respelled(end) if fault == "window_end" and draw(st.booleans()) else _spelled(end)
    for agg, minute in zip(batch["aggregates"], minutes):
        agg["minute_start"] = minute
    head = draw(st.sampled_from([1, 300] if fault == "head" else [None, -300, 0]))
    if head is not None:
        head = json.dumps({"window_end": _spelled(start + head)}, sort_keys=True).encode()
    return batch, head


@given(case=_timestamped_batches())
def test_validate_batch_agrees_with_parsing_every_timestamp(case):
    batch, head = case
    state = StateView({} if head is None else {"head/plant-1": head}, lambda value: value)
    expected = _reference_timestamps(batch, state)
    ok_and_reason = validate_batch(batch, make_identity("plant-1", Role.PRODUCER), state, AnomalyRules(), EmissionConfig())
    assert ok_and_reason == (expected is None, expected)


def test_a_batch_below_year_1000_takes_the_batch_id_strftime_spells(env):
    # strftime does not pad the year: a batch id derived from the timestamp's
    # text, 0999..., would refuse the batch
    ledger, *_ = env
    batch = _batch_dict(1, day=parse_date("0999-03-01"))
    for agg, minute in zip(batch["aggregates"], range(5, 10)):
        agg["minute_start"] = f"0999-03-01T00:{minute:02d}:00Z"
    batch["window_start"], batch["window_end"] = "0999-03-01T00:05:00Z", "0999-03-01T00:10:00Z"
    assert batch["batch_id"] == "plant-1-9990301-001"
    assert _submit_batch(ledger, batch).status == "VALID"
    batch["batch_id"] = "plant-1-09990301-002"
    batch["window_start"], batch["window_end"] = "0999-03-01T00:10:00Z", "0999-03-01T00:15:00Z"
    for agg, minute in zip(batch["aggregates"], range(10, 15)):
        agg["minute_start"] = f"0999-03-01T00:{minute:02d}:00Z"
    assert _submit_batch(ledger, batch).reason == "timestamps"


def test_verify_chain_renders_flag_free_batches_without_canonical_json(env, monkeypatch):
    # the re-execution writes each batch by its fixed layout and parses each
    # window's timestamps once: no _emit, and at most three parse_ts per batch
    ledger, *_ = env
    _fill_day(ledger, windows=range(24))
    ledger.cut_all()
    reopened = Ledger(ledger.root, CreditContract(), str(CONTRACT_VERSION), ledger.identities.values())
    emitted, parsed = [], []
    emit, parse = model._emit, chaincode.parse_ts
    monkeypatch.setattr(model, "_emit", lambda value: emitted.append(value) or emit(value))
    monkeypatch.setattr(chaincode, "parse_ts", lambda text: parsed.append(text) or parse(text))
    assert reopened.verify_chain() is None
    assert emitted == []
    assert 2 * 24 <= len(parsed) <= 3 * 24
