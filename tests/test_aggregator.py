import json
from dataclasses import dataclass, field
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from carboncert import aggregator as agg_mod
from carboncert import collector as col_mod
from carboncert import metersim, pipeline
from carboncert.aggregator import (
    PF_BOUNDS,
    RAMP,
    RANGE_POWER,
    RANGE_VOLTAGE,
    AnomalyRules,
    DuplicatePhase,
    Rejected,
    Unauthorized,
    detect_anomalies,
    flag_aggregate,
    fuse_day,
    make_batches,
    submit,
)
from carboncert.chaincode import CONTRACT_VERSION, CreditContract
from carboncert.collector import DayColumns
from carboncert.ledger import Ledger, make_identity
from carboncert.model import (
    METER_IDS,
    MINUTES_PER_DAY,
    PHASES,
    SCHEMA_VERSION,
    WINDOW_SECONDS,
    WINDOWS_PER_DAY,
    Identity,
    MinuteRecord,
    Quality,
    Role,
    batch_id_for,
    canonical_json,
    digest_hex,
    format_ts,
    parse_date,
)

DAY0 = parse_date("2025-06-01")
RULES = AnomalyRules()


def _rec(meter, phase, minute=DAY0, power=4000.0, voltage=230.0, freq=50.0, pf=0.97, count=40):
    return MinuteRecord(
        meter, phase, minute, power, voltage, power / voltage / pf, pf, freq, power / pf, count
    )


def _full_minute(minute=DAY0, power=4000.0, **kw):
    return [_rec(m, p, minute, power, **kw) for m in METER_IDS for p in (1, 2, 3)]


def _fuse(records, rules=RULES):
    """fuse_day over one file holding ``records``: (aggregates, quarantine entries)."""
    return fuse_day([DayColumns(*map(list, zip(*records)))], rules)


def _aggregate_minute(records):
    (agg,), _ = _fuse(records)
    return agg


def test_aggregate_minute_full_grid():
    agg = _aggregate_minute(_full_minute(power=4000.0))
    assert agg["minute_start"] == "2025-06-01T00:00:00Z"
    assert agg["total_power"] == pytest.approx(24 * 4000.0)
    assert agg["avg_voltage"] == pytest.approx(230.0)
    assert agg["avg_frequency"] == pytest.approx(50.0)
    assert agg["phase_count"] == 24
    assert agg["quality"] == Quality.OK.value and agg["flags"] == []


def test_aggregate_minute_partial():
    records = _full_minute()
    records[5] = records[5]._replace(sample_count=0, avg_active_power=None, avg_voltage=None, avg_frequency=None)
    agg = _aggregate_minute(records)
    assert agg["phase_count"] == 23
    assert agg["quality"] == Quality.PARTIAL.value
    assert agg["total_power"] == pytest.approx(23 * 4000.0)


def test_aggregate_minute_all_absent():
    records = [
        _rec(m, p)._replace(sample_count=0, avg_active_power=None, avg_voltage=None, avg_frequency=None)
        for m in METER_IDS
        for p in (1, 2, 3)
    ]
    agg = _aggregate_minute(records)
    assert agg["phase_count"] == 0 and agg["total_power"] == 0.0
    assert agg["avg_voltage"] is None and agg["avg_frequency"] is None
    assert agg["quality"] == Quality.OK.value


def test_aggregate_minute_rejects_duplicate_phase():
    with pytest.raises(DuplicatePhase, match=r"^duplicate phase record \(1, 2\)$"):
        _aggregate_minute([_rec(1, 1), _rec(1, 2), _rec(2, 1), _rec(1, 2)])
    # the same (meter, phase) in other minutes is no duplicate
    assert len(_fuse([_rec(1, 1, DAY0), _rec(1, 1, DAY0 + 60)])[0]) == 2


def test_fuse_day_gives_each_minute_its_aggregate_in_minute_order():
    records = _full_minute(DAY0 + 60, power=1000.0)[::-1] + _full_minute(DAY0, power=2000.0)
    aggregates, entries = _fuse(records)
    assert [(a["minute_start"], a["total_power"], a["phase_count"]) for a in aggregates] == [
        ("2025-06-01T00:00:00Z", 24 * 2000.0, 24), ("2025-06-01T00:01:00Z", 24 * 1000.0, 24)
    ]
    assert entries == []
    assert fuse_day([], RULES) == fuse_day([DayColumns(*[[]] * 10)], RULES) == ([], [])


def test_fuse_day_quarantines_a_flagged_minute_with_its_records_in_file_order():
    records = _full_minute(DAY0 + 60)[::-1]
    records[3] = records[3]._replace(avg_active_power=7000.0, avg_voltage=190.0)
    records[5] = records[5]._replace(avg_power_factor=-1.1)
    aggregates, (entry,) = _fuse(_full_minute(DAY0, power=100.0) + records)
    assert aggregates[1]["quality"] == Quality.FLAGGED.value
    assert aggregates[1]["flags"] == entry["codes"] == [PF_BOUNDS, RAMP, RANGE_POWER, RANGE_VOLTAGE]
    assert entry["aggregate"] is aggregates[1]  # the minute's own dict, not a second conversion
    assert entry["details"] == [
        "RANGE_POWER: meter 7 phase 3: 7000.000 W",
        "RANGE_VOLTAGE: meter 7 phase 3: 190.000 V",
        "PF_BOUNDS: meter 7 phase 1: pf -1.100",
        "RAMP: total power jumped 96600.000 W in one minute",
    ]
    assert [(r["meter_id"], r["phase"]) for r in entry["records"]] == [(r.meter_id, r.phase) for r in records]


def test_detect_anomalies_clean():
    records = _full_minute()
    agg = _aggregate_minute(records)
    assert detect_anomalies(agg, None, records, RULES) == []


def test_detect_power_range():
    records = _full_minute()
    records[0] = records[0]._replace(avg_active_power=7000.0)
    agg = _aggregate_minute(records)
    codes = {a.code for a in detect_anomalies(agg, None, records, RULES)}
    assert codes == {RANGE_POWER}


def test_detect_voltage_and_pf():
    records = _full_minute()
    records[0] = records[0]._replace(avg_voltage=190.0, avg_power_factor=1.2)
    agg = _aggregate_minute(records)
    codes = {a.code for a in detect_anomalies(agg, None, records, RULES)}
    assert codes == {RANGE_VOLTAGE, PF_BOUNDS}


def test_detect_ramp_against_previous_minute():
    prev = _aggregate_minute(_full_minute(DAY0, power=100.0))
    records = _full_minute(DAY0 + 60, power=4000.0)
    agg = _aggregate_minute(records)
    anomalies = detect_anomalies(agg, prev, records, RULES)
    assert {a.code for a in anomalies} == {RAMP}
    # no previous minute -> no ramp check
    assert detect_anomalies(agg, None, records, RULES) == []


def test_flag_aggregate_sets_quality_and_sorted_codes():
    records = _full_minute()
    records[0] = records[0]._replace(avg_voltage=190.0, avg_active_power=9000.0)
    agg = _aggregate_minute(records)
    flag_aggregate(agg, detect_anomalies(agg, None, records, RULES))
    assert agg["quality"] == Quality.FLAGGED.value
    assert agg["flags"] == sorted(agg["flags"]) == [RANGE_POWER, RANGE_VOLTAGE]


def test_rules_validation():
    with pytest.raises(ValueError):
        AnomalyRules(voltage_range=(250.0, 210.0))
    with pytest.raises(ValueError):
        AnomalyRules(max_ramp_watts_per_minute=0.0)
    r = AnomalyRules.from_dict({"voltage_range": [200.0, 260.0], "max_ramp_watts_per_minute": 5.0})
    assert r.voltage_range == (200.0, 260.0) and r.max_ramp_watts_per_minute == 5.0


def test_make_batches_groups_by_window():
    aggs = [_aggregate_minute(_full_minute(DAY0 + 60 * m)) for m in range(10)]
    batches, missing = make_batches(aggs, "plant-1")
    assert len(batches) == 2
    assert [b["batch_id"] for b in batches] == ["plant-1-20250601-000", "plant-1-20250601-001"]
    assert all(len(b["aggregates"]) == 5 for b in batches)
    assert batches[0]["window_start"] == "2025-06-01T00:00:00Z" and batches[0]["window_end"] == "2025-06-01T00:05:00Z"
    assert batches[0]["producer_id"] == "plant-1" and batches[0]["schema_version"] == SCHEMA_VERSION
    assert missing == list(range(2, WINDOWS_PER_DAY))


def test_make_batches_short_window():
    aggs = [_aggregate_minute(_full_minute(DAY0 + 60 * m)) for m in (0, 2, 4)]
    batches, missing = make_batches(aggs, "plant-1")
    assert len(batches) == 1 and len(batches[0]["aggregates"]) == 3
    assert 0 not in missing


def test_make_batches_empty():
    batches, missing = make_batches([], "plant-1")
    assert batches == [] and missing == list(range(WINDOWS_PER_DAY))


def _ledger(tmp_path):
    producer = make_identity("plant-1", Role.PRODUCER)
    members = [producer, make_identity("auditor-1", Role.AUDITOR)]
    return Ledger(tmp_path / "chain", CreditContract(), str(CONTRACT_VERSION), members), producer


def test_submit_round_trip(tmp_path):
    ledger, producer = _ledger(tmp_path)
    aggs = [_aggregate_minute(_full_minute(DAY0 + 60 * m)) for m in range(5)]
    batch = make_batches(aggs, "plant-1")[0][0]
    tx_id = submit(batch, producer, ledger)
    assert ledger.get_transaction(tx_id).status == "VALID"
    assert ledger.query_state("batch/plant-1/plant-1-20250601-000") is not None


def test_submit_requires_producer_role(tmp_path):
    ledger, _ = _ledger(tmp_path)
    auditor = ledger.get_identity("auditor-1")
    aggs = [_aggregate_minute(_full_minute(DAY0))]
    batch = make_batches(aggs, "auditor-1")[0][0]
    with pytest.raises(Unauthorized):
        submit(batch, auditor, ledger)


def test_submit_raises_rejected_with_reason(tmp_path):
    ledger, producer = _ledger(tmp_path)
    aggs = [_aggregate_minute(_full_minute(DAY0))]
    batch = make_batches(aggs, "plant-1")[0][0]
    submit(batch, producer, ledger)
    with pytest.raises(Rejected) as exc:
        submit(batch, producer, ledger)
    assert exc.value.reason == "duplicate"


def test_run_day_aggregation_reads_only_the_dates_csvs_in_path_order(tmp_path, monkeypatch):
    ledger, producer = _ledger(tmp_path)
    colls = tmp_path / "colls"
    for rel in ("A/2025-06-01/SEM2.csv", "A/2025-06-01/SEM1.csv", "A/2025-06-02/SEM1.csv", "C/2025-06-01/SEM3.csv"):
        (colls / rel).parent.mkdir(parents=True, exist_ok=True)
        (colls / rel).write_text("x")
    (colls / "A/2025-06-01/SEM9.csv").mkdir()  # not a file
    (colls / "A/2025-06-01/.processed").write_text("SEM1.csv\nSEM2.csv\n")  # an old marker is ignored
    read = []
    monkeypatch.setattr(col_mod, "read_day_columns", lambda path, stamps: read.append(path) or DayColumns(*[[]] * 10))
    summary = agg_mod.run_day_aggregation(
        "2025-06-01", [colls / "C", colls / "B", colls / "A"], RULES, producer, ledger, tmp_path / "out"
    )
    assert read == [colls / "A/2025-06-01/SEM1.csv", colls / "A/2025-06-01/SEM2.csv", colls / "C/2025-06-01/SEM3.csv"]
    assert summary.notices == [f"IoFailure: {colls / 'A/2025-06-01/SEM9.csv'}", f"MissingCollector: {colls / 'B'}"]


def test_second_aggregation_of_a_committed_day_keeps_its_sidecar_and_is_rejected(tmp_path):
    # the date's files used to be hidden by .processed markers: the second pass
    # emptied the sidecar and filed an INVALID report_missing instead of failing
    config = pipeline.RunConfig(
        home=tmp_path,
        seed=3,
        fleet=metersim.FleetConfig.from_dict({"meters": [2, 7]}),
        rules=AnomalyRules(max_ramp_watts_per_minute=100.0),
    )
    result = pipeline.run_simulation(config)
    assert result.flagged_minutes > 0
    assert not list(tmp_path.rglob(".processed"))
    sidecar = config.aggregator_dir / f"anomalies-{config.date}.jsonl"
    before = sidecar.read_bytes()
    ledger = pipeline.open_ledger(config)
    with pytest.raises(Rejected) as exc:
        agg_mod.run_day_aggregation(
            config.date,
            config.collector_roots,
            config.rules,
            ledger.get_identity(config.producer),
            ledger,
            config.aggregator_dir,
        )
    assert exc.value.reason == "duplicate"
    assert str(exc.value) == "batch plant-1-20250601-000 rejected: duplicate"
    assert sidecar.read_bytes() == before


def test_run_day_aggregation_end_to_end(sim_day):
    # the shared fault-free day: full volumes, nothing flagged or missing
    config, result = sim_day
    assert result.aggregate_count == 1440
    assert result.batch_count == 288
    assert result.flagged_minutes == 0
    assert result.missing_windows == []


def test_run_day_aggregation_writes_quarantine_file(sim_day):
    config, _ = sim_day
    path = config.aggregator_dir / "anomalies-2025-06-01.jsonl"
    assert path.exists()
    assert path.read_text() == ""  # clean day, no quarantined minutes


def test_quarantine_entries_are_json_lines(tmp_path):
    # exercise the quarantine sidecar through a tiny synthetic day
    ledger, producer = _ledger(tmp_path)
    day = tmp_path / "colls" / "A" / "2025-06-01"
    day.mkdir(parents=True)
    from carboncert.collector import CSV_HEADER

    rows = [CSV_HEADER]
    rows.append("2025-06-01T00:00:00Z,1,1,9500.000,230.000,42.000,0.970,50.000,9794.000,40")
    (day / "SEM1.csv").write_text("\n".join(rows) + "\n")
    summary = agg_mod.run_day_aggregation(
        "2025-06-01",
        [tmp_path / "colls" / "A"],
        RULES,
        producer,
        ledger,
        tmp_path / "out",
    )
    assert summary.flagged_minutes == 1
    sidecar = (tmp_path / "out" / "anomalies-2025-06-01.jsonl").read_bytes()
    # published whole (no temp file left), with the bytes the sidecar has always had
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["anomalies-2025-06-01.jsonl"]
    assert digest_hex(sidecar) == "285e71385672cf5e7d5aacc132af31a8efec8be97e38b87594ff138797c886e1"
    lines = sidecar.decode().splitlines()
    entry = json.loads(lines[0])
    assert entry["codes"] == [RANGE_POWER]
    assert entry["aggregate"]["quality"] == "FLAGGED"
    # quarantine landed on chain under the producer's minute index key
    assert ledger.query_state("quarantine/plant-1/2025-06-01/0000") is not None
    # 287 windows were reported missing (only window 0 had data)
    missing = json.loads(ledger.query_state("missing/plant-1/2025-06-01").decode())
    assert missing["windows"] == list(range(1, WINDOWS_PER_DAY))


@pytest.mark.parametrize("column", [3, 4, 6, 7])  # power, voltage, power factor, frequency
def test_run_day_aggregation_refuses_a_row_with_samples_and_an_empty_reading(tmp_path, column):
    ledger, producer = _ledger(tmp_path)
    day = tmp_path / "colls" / "A" / "2025-06-01"
    day.mkdir(parents=True)
    from carboncert.collector import CSV_HEADER

    cells = "2025-06-01T00:00:00Z,1,1,4000.000,230.000,17.900,0.970,50.000,4123.000,40".split(",")
    cells[column] = ""
    (day / "SEM1.csv").write_text(CSV_HEADER + "\n" + ",".join(cells) + "\n")
    with pytest.raises(ValueError, match="SEM1.csv line 2: a row with samples has an empty reading"):
        agg_mod.run_day_aggregation("2025-06-01", [day.parent], RULES, producer, ledger, tmp_path / "out")
    assert ledger.pending_count == 0


# -- the dataclass path the aggregator had, kept as the reference -------------


@dataclass
class _Aggregate:
    """The plant minute as a dataclass, before the aggregator built it as the batch's dict."""

    minute_start: int
    total_power: float
    avg_voltage: Optional[float]
    avg_frequency: Optional[float]
    phase_count: int
    quality: Quality
    flags: list = field(default_factory=list)


@dataclass
class _Batch:
    batch_id: str
    window_start: int
    window_end: int
    producer_id: str
    schema_version: int
    aggregates: list  # _Aggregate


def _aggregate_to_dict(agg):
    return {
        "minute_start": format_ts(agg.minute_start),
        "total_power": float(agg.total_power),
        "avg_voltage": None if agg.avg_voltage is None else float(agg.avg_voltage),
        "avg_frequency": None if agg.avg_frequency is None else float(agg.avg_frequency),
        "phase_count": agg.phase_count,
        "quality": agg.quality.value,
        "flags": sorted(agg.flags),
    }


def _batch_to_dict(batch):
    aggs = sorted(batch.aggregates, key=lambda a: a.minute_start)
    return {
        "batch_id": batch.batch_id,
        "window_start": format_ts(batch.window_start),
        "window_end": format_ts(batch.window_end),
        "producer_id": batch.producer_id,
        "schema_version": batch.schema_version,
        "aggregates": [_aggregate_to_dict(a) for a in aggs],
    }


def _make_batches(day_aggregates, producer_id, schema_version=1):
    by_window = {}
    for agg in day_aggregates:
        w = (agg.minute_start % 86400) // WINDOW_SECONDS
        by_window.setdefault(w, []).append(agg)
    if not by_window:
        return [], list(range(WINDOWS_PER_DAY))
    day0 = min(a.minute_start for aggs in by_window.values() for a in aggs)
    day0 -= day0 % 86400
    batches = []
    for w in sorted(by_window):
        aggs = sorted(by_window[w], key=lambda a: a.minute_start)
        start = day0 + w * WINDOW_SECONDS
        end = start + WINDOW_SECONDS
        batches.append(_Batch(batch_id_for(producer_id, start), start, end, producer_id, schema_version, aggs))
    return batches, [w for w in range(WINDOWS_PER_DAY) if w not in by_window]


def _reference_fuse(records, rules):
    """One file's records fused minute by minute into ``_Aggregate``s, in minute
    order: (aggregates, quarantine entries). A minute's sums run in (meter,
    phase) order from 0.0; its rules run over its records in file order."""
    per_minute = {}
    for r in records:
        per_minute.setdefault(r.minute_start, []).append(r)
    aggregates, entries, prev = [], [], None
    for minute in sorted(per_minute):
        rows = per_minute[minute]
        present = [r for r in sorted(rows, key=lambda r: (r.meter_id, r.phase)) if r.sample_count > 0]
        n = len(present)
        total = volts = hertz = 0.0
        for r in present:
            total, volts, hertz = total + r.avg_active_power, volts + r.avg_voltage, hertz + r.avg_frequency
        agg = _Aggregate(
            minute, total, volts / n if n else None, hertz / n if n else None, n,
            Quality.PARTIAL if 0 < n < 24 else Quality.OK,
        )
        # the rules read only the total power of the minute and of the one before
        anomalies = detect_anomalies(
            {"total_power": total}, prev and {"total_power": prev.total_power}, rows, rules
        )
        if anomalies:
            agg.flags, agg.quality = sorted({a.code for a in anomalies}), Quality.FLAGGED
            entries.append({
                "minute_start": format_ts(minute),
                "aggregate": _aggregate_to_dict(agg),
                "codes": sorted({a.code for a in anomalies}),
                "details": [f"{a.code}: {a.detail}" for a in anomalies],
                "records": [
                    {
                        "meter_id": r.meter_id,
                        "phase": r.phase,
                        "avg_active_power": r.avg_active_power,
                        "avg_voltage": r.avg_voltage,
                        "avg_power_factor": r.avg_power_factor,
                        "avg_frequency": r.avg_frequency,
                        "sample_count": r.sample_count,
                    }
                    for r in rows
                ],
            })
        aggregates.append(agg)
        prev = agg
    return aggregates, entries


class _Accepting:
    """A ledger client that keeps each payload and marks every transaction VALID."""

    class _Valid:
        status, reason = "VALID", None

    def __init__(self):
        self.payloads = []

    def submit_tx(self, payload, submitter):
        self.payloads.append(payload)
        return str(len(self.payloads))

    def get_transaction(self, tx_id):
        return self._Valid()


_KEYS = [(m, p) for m in METER_IDS for p in PHASES]
_EXTREME = st.sampled_from([-0.0, 0.0, 1e12, -1e12, 999_999_999_999.9995, 1e12 + 0.0005])


@st.composite
def _minute_records(draw):
    """The records of a subset of a day's minutes, in shuffled order: some
    without samples, some out of range, -0.0 and values near 1e12 among them."""
    records = []
    # minutes 600-614 fill windows 120-122, so that a window holds several minutes
    minutes = st.one_of(st.integers(0, MINUTES_PER_DAY - 1), st.integers(600, 614))
    for minute in draw(st.lists(minutes, unique=True, max_size=24)):
        keys = draw(st.one_of(st.just(_KEYS), st.lists(st.sampled_from(_KEYS), unique=True, min_size=1)))
        gaps = draw(st.sampled_from([0, 1, 4]))  # of every 4 records, about this many have no samples
        wild = draw(st.booleans())
        for meter, phase in keys:
            if gaps and draw(st.integers(1, 4)) <= gaps:
                records.append(MinuteRecord(meter, phase, DAY0 + 60 * minute, *[None] * 6, 0))
                continue
            extreme = wild and draw(st.integers(0, 3)) == 0  # any of its readings may be extreme or out of range
            power, voltage, power_factor, frequency = (
                draw(st.one_of(st.floats(lo - 1.0, hi + 1.0), _EXTREME) if extreme else st.floats(lo, hi))
                for lo, hi in ((-200.0, 6000.0), (207.0, 253.0), (-1.0, 1.0), (49.5, 50.5))
            )
            records.append(
                MinuteRecord(meter, phase, DAY0 + 60 * minute, power, voltage, -0.0, power_factor, frequency, 1e12, 40)
            )
    return draw(st.permutations(records))


@settings(max_examples=100, deadline=None)
@given(records=_minute_records(), data=st.data())
def test_dict_path_gives_the_dataclass_paths_payloads_entries_and_missing_windows(records, data):
    rules = AnomalyRules()
    producer = make_identity("plant-1", Role.PRODUCER)
    aggregates, entries = _fuse(records, rules) if records else fuse_day([], rules)
    expected_aggregates, expected_entries = _reference_fuse(records, rules)
    assert json.dumps(entries, sort_keys=True) == json.dumps(expected_entries, sort_keys=True)  # the sidecar
    assert canonical_json(entries) == canonical_json(expected_entries)  # the quarantine op

    # make_batches takes the minutes in any order
    order = data.draw(st.permutations(range(len(aggregates))))
    batches, missing = make_batches([aggregates[k] for k in order], "plant-1")
    expected_batches, expected_missing = _make_batches([expected_aggregates[k] for k in order], "plant-1")
    assert missing == expected_missing
    client = _Accepting()
    for batch in batches:
        submit(batch, producer, client)
    assert client.payloads == [
        canonical_json({"batch": _batch_to_dict(batch), "op": "submit_batch"}) for batch in expected_batches
    ]
