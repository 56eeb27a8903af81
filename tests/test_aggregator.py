import json

import pytest

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
    WINDOWS_PER_DAY,
    Identity,
    MinuteRecord,
    Quality,
    Role,
    digest_hex,
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
    assert agg.total_power == pytest.approx(24 * 4000.0)
    assert agg.avg_voltage == pytest.approx(230.0)
    assert agg.avg_frequency == pytest.approx(50.0)
    assert agg.phase_count == 24
    assert agg.quality is Quality.OK and agg.flags == []


def test_aggregate_minute_partial():
    records = _full_minute()
    records[5] = records[5]._replace(sample_count=0, avg_active_power=None, avg_voltage=None, avg_frequency=None)
    agg = _aggregate_minute(records)
    assert agg.phase_count == 23
    assert agg.quality is Quality.PARTIAL
    assert agg.total_power == pytest.approx(23 * 4000.0)


def test_aggregate_minute_all_absent():
    records = [
        _rec(m, p)._replace(sample_count=0, avg_active_power=None, avg_voltage=None, avg_frequency=None)
        for m in METER_IDS
        for p in (1, 2, 3)
    ]
    agg = _aggregate_minute(records)
    assert agg.phase_count == 0 and agg.total_power == 0.0
    assert agg.avg_voltage is None and agg.avg_frequency is None
    assert agg.quality is Quality.OK


def test_aggregate_minute_rejects_duplicate_phase():
    with pytest.raises(DuplicatePhase, match=r"^duplicate phase record \(1, 2\)$"):
        _aggregate_minute([_rec(1, 1), _rec(1, 2), _rec(2, 1), _rec(1, 2)])
    # the same (meter, phase) in other minutes is no duplicate
    assert len(_fuse([_rec(1, 1, DAY0), _rec(1, 1, DAY0 + 60)])[0]) == 2


def test_fuse_day_gives_each_minute_its_aggregate_in_minute_order():
    records = _full_minute(DAY0 + 60, power=1000.0)[::-1] + _full_minute(DAY0, power=2000.0)
    aggregates, entries = _fuse(records)
    assert [(a.minute_start, a.total_power, a.phase_count) for a in aggregates] == [
        (DAY0, 24 * 2000.0, 24), (DAY0 + 60, 24 * 1000.0, 24)
    ]
    assert entries == []
    assert fuse_day([], RULES) == fuse_day([DayColumns(*[[]] * 10)], RULES) == ([], [])


def test_fuse_day_quarantines_a_flagged_minute_with_its_records_in_file_order():
    records = _full_minute(DAY0 + 60)[::-1]
    records[3] = records[3]._replace(avg_active_power=7000.0, avg_voltage=190.0)
    records[5] = records[5]._replace(avg_power_factor=-1.1)
    aggregates, (entry,) = _fuse(_full_minute(DAY0, power=100.0) + records)
    assert aggregates[1].quality is Quality.FLAGGED
    assert aggregates[1].flags == entry["codes"] == [PF_BOUNDS, RAMP, RANGE_POWER, RANGE_VOLTAGE]
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
    assert agg.quality is Quality.FLAGGED
    assert agg.flags == sorted(agg.flags) == [RANGE_POWER, RANGE_VOLTAGE]


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
    assert [b.batch_id for b in batches] == ["plant-1-20250601-000", "plant-1-20250601-001"]
    assert all(len(b.aggregates) == 5 for b in batches)
    assert batches[0].window_start == DAY0 and batches[0].window_end == DAY0 + 300
    assert missing == list(range(2, WINDOWS_PER_DAY))


def test_make_batches_short_window():
    aggs = [_aggregate_minute(_full_minute(DAY0 + 60 * m)) for m in (0, 2, 4)]
    batches, missing = make_batches(aggs, "plant-1")
    assert len(batches) == 1 and len(batches[0].aggregates) == 3
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
    # quarantine landed on chain under the minute index key
    assert ledger.query_state("quarantine/2025-06-01/0000") is not None
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
