"""The two readers of a day's collector CSVs: the aggregator's (through
``collector``) and the audit's own. Golden digests pin a day with flagged
minutes, and a row-at-a-time reference kept here checks both readers on
generated files."""

import csv
import hashlib
import json
import shutil
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from carboncert import aggregator as agg_mod
from carboncert import audit
from carboncert.aggregator import AnomalyRules, DuplicatePhase, fuse_day
from carboncert.chaincode import CONTRACT_VERSION, CreditContract
from carboncert.collector import CSV_HEADER, read_day_columns
from carboncert.ledger import Ledger, make_identity
from carboncert.model import (
    TOTAL_PHASES,
    WINDOWS_PER_DAY,
    MinuteRecord,
    Quality,
    Role,
    format_ts,
    parse_ts,
)

RULES = AnomalyRules()
DATE = "2025-06-01"


def _edit_rows(path, edit):
    """Rewrite ``path`` with ``edit(cells)`` applied to each data row; a row
    for which it returns None is dropped."""
    lines = path.read_text().split("\n")
    out = [lines[0]]
    for line in lines[1:-1]:
        cells = edit(line.split(","))
        if cells is not None:
            out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n")


def _flagged_day(sim_day, tmp_path):
    """The shared clean day's CSVs with flagged, partial, empty and missing
    minutes written in: out-of-range power, voltage and frequency, power
    factors beyond one, a plant-wide dip that ramps down and back up, a
    ``-0.000`` reading, and a window with no rows at all."""
    config, _ = sim_day
    roots = []
    for root in config.collector_roots:
        shutil.copytree(root / DATE, tmp_path / root.name / DATE)
        roots.append(tmp_path / root.name)
    injected = {
        ("2025-06-01T11:06:00Z", "1", "1"): {3: "6500.000"},
        ("2025-06-01T11:07:00Z", "2", "2"): {4: "190.500", 6: "1.020"},
        ("2025-06-01T11:08:00Z", "2", "3"): {6: "-1.500"},
        ("2025-06-01T11:09:00Z", "5", "1"): {7: "50.700"},
        ("2025-06-01T11:09:00Z", "7", "2"): {3: "-250.000", 7: "49.100"},
        ("2025-06-01T01:00:00Z", "3", "1"): {3: "-0.000"},
        ("2025-06-01T11:06:00Z", "3", "2"): dict(zip(range(3, 10), ["", "", "", "", "", "", "0"])),
        ("2025-06-01T11:10:00Z", "4", "3"): dict(zip(range(3, 10), ["", "", "", "", "", "", "0"])),
        ("2025-06-01T12:00:00Z", "8", "3"): {6: "1.500"},
    }

    def edit(cells):
        stamp = cells[0]
        if "2025-06-01T02:00:00Z" <= stamp <= "2025-06-01T02:04:00Z":
            return None  # window 24 has no rows
        if stamp == "2025-06-01T03:00:00Z":
            cells[3:10] = ["", "", "", "", "", "", "0"]  # no phase has samples
        if stamp == "2025-06-01T12:00:00Z":
            cells[3] = "100.000"  # the plant dips by some 90 kW for a minute
        for column, text in injected.get(tuple(cells[:3]), {}).items():
            cells[column] = text
        return cells

    for root in roots:
        for path in (root / DATE).glob("SEM*.csv"):
            _edit_rows(path, edit)
    return roots


class _Recorder:
    """A ledger client that keeps every payload submitted through it."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.payloads = []

    def submit_tx(self, payload, submitter):
        self.payloads.append(payload)
        return self.ledger.submit_tx(payload, submitter)

    def get_transaction(self, tx_id):
        return self.ledger.get_transaction(tx_id)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_a_day_with_flagged_minutes_keeps_its_sidecar_payloads_and_replay(sim_day, tmp_path):
    roots = _flagged_day(sim_day, tmp_path / "colls")
    producer = make_identity("plant-1", Role.PRODUCER)
    members = [producer, make_identity("auditor-1", Role.AUDITOR)]
    ledger = Ledger(tmp_path / "chain", CreditContract(), str(CONTRACT_VERSION), members)
    client = _Recorder(ledger)
    summary = agg_mod.run_day_aggregation(DATE, roots, RULES, producer, client, tmp_path / "out")
    assert (summary.aggregate_count, summary.batch_count, summary.flagged_minutes) == (1435, 287, 6)
    assert summary.missing_windows == [24]
    *batches, quarantine, missing = client.payloads
    assert all(p.endswith(b',"op":"submit_batch"}') for p in batches) and len(batches) == 287
    assert b'"op":"quarantine"' in quarantine and b'"op":"report_missing"' in missing
    sidecar = (tmp_path / "out" / f"anomalies-{DATE}.jsonl").read_bytes()
    assert _sha(sidecar) == "17a9b9a1d1fa452034c0c43d3a5dc417220c867121d722894d94d1bd9ca9e417"
    assert _sha(quarantine) == "b832abab7b7afe8933c88935d308a59c70733b40189d5a9dc8f8048c9b461bcc"
    assert _sha(b"\n".join(batches)) == "ea6792baec02b7f3d6db87c9a5f8fab7374f5f0d0b7fb62fdd1c3c14b07c1bf6"

    replay = audit.replay_day(roots, DATE, RULES, "plant-1")
    replayed = b"\n".join(replay.batch_bytes[w] for w in sorted(replay.batch_bytes))
    assert _sha(replayed) == "62dced28db7edf98e4836570bb3fb6bcb2d8d3b9249b597a1c9cf347eec43fdd"
    assert replay.missing_windows == [24]
    assert replay.flagged_minutes == [
        f"{DATE}T{hm}:00Z" for hm in ("11:06", "11:07", "11:08", "11:09", "12:00", "12:01")
    ]
    ledger.cut_all()
    assert audit.replay_verify(roots, ledger, DATE, "plant-1", RULES, replay=replay).passed


def test_both_readers_refuse_a_quoted_cell_with_its_file_and_line(sim_day, tmp_path):
    roots = _flagged_day(sim_day, tmp_path / "colls")
    path = roots[0] / DATE / "SEM2.csv"
    lines = path.read_text().split("\n")
    cells = lines[700].split(",")
    cells[3] = f'"{cells[3]}"'  # csv.reader would read it as the number
    lines[700] = ",".join(cells)
    path.write_text("\n".join(lines))
    why = f"{path} line 701: could not convert string to float: '{cells[3]}'"
    with pytest.raises(ValueError) as exc:
        read_day_columns(path, {})
    assert str(exc.value) == why
    with pytest.raises(ValueError) as exc:
        agg_mod.run_day_aggregation(DATE, roots, RULES, make_identity("plant-1", Role.PRODUCER), None, tmp_path / "out")
    assert str(exc.value) == why
    with pytest.raises(audit.UnreadableCsv) as exc:
        audit.replay_day(roots, DATE, RULES, "plant-1")
    assert str(exc.value) == why


def test_both_readers_refuse_rows_of_other_widths_whose_cells_realign(sim_day, tmp_path):
    # line 11 carries line 12's timestamp as an eleventh cell: the file holds
    # ten cells per line on average, and every column still converts
    roots = _flagged_day(sim_day, tmp_path / "colls")
    path = roots[0] / DATE / "SEM1.csv"
    lines = path.read_text().split("\n")
    stamp, rest = lines[11].split(",", 1)
    lines[10] += "," + stamp
    lines[11] = rest
    path.write_text("\n".join(lines))
    why = f"{path} line 11: 11 cells, the header has 10"
    with pytest.raises(ValueError) as exc:
        read_day_columns(path, {})
    assert str(exc.value) == why
    with pytest.raises(audit.UnreadableCsv) as exc:
        audit.replay_day(roots, DATE, RULES, "plant-1")
    assert str(exc.value) == f"{path} line 11: 11 cells, expected 10"


# -- the row-at-a-time readers and fusion, kept as the reference -------------


def _records(path):
    """The rows ``collector.read_day_columns`` reads from ``path``, as minute records."""
    return list(map(MinuteRecord._make, zip(*read_day_columns(path, {}))))


def _reference_read_day_csv(path):
    """The collector's reader as it read one row at a time, with csv.reader."""
    text = path.read_text(encoding="utf-8")
    rows = list(csv.reader(text.splitlines()))
    if not rows or ",".join(rows[0]) != CSV_HEADER:
        raise ValueError(f"bad CSV header in {path}")
    minute_start = lru_cache(maxsize=None)(parse_ts)
    width = len(rows[0])
    records = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != width:
                raise ValueError(f"{len(row)} cells, the header has {width}")
            stamp, meter, phase, power, voltage, current, pf, frequency, apparent, count = row
            samples = int(count)
            if samples > 0 and "" in (power, voltage, pf, frequency):
                raise ValueError("a row with samples has an empty reading")
            records.append(
                MinuteRecord(
                    int(meter), int(phase), minute_start(stamp),
                    *(None if c == "" else float(c) for c in (power, voltage, current, pf, frequency, apparent)),
                    samples,
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path} line {line}: {exc}") from exc
    return records


def _reference_aggregate_minute(records):
    records = sorted(records, key=lambda r: (r.meter_id, r.phase))
    seen = set()
    for r in records:
        key = (r.meter_id, r.phase)
        if key in seen:
            raise DuplicatePhase(f"duplicate phase record {key}")
        seen.add(key)
    present = [r for r in records if r.sample_count > 0]
    n = len(present)
    return {
        "minute_start": format_ts(records[0].minute_start),
        "total_power": float(sum(r.avg_active_power for r in present)),
        "avg_voltage": sum(r.avg_voltage for r in present) / n if n else None,
        "avg_frequency": sum(r.avg_frequency for r in present) / n if n else None,
        "phase_count": n,
        "quality": (Quality.PARTIAL if 0 < n < TOTAL_PHASES else Quality.OK).value,
        "flags": [],
    }


def _reference_fuse(paths, rules):
    """The aggregator's minute loop over ``_reference_read_day_csv``: (aggregates, quarantine entries)."""
    per_minute = {}
    for path in paths:
        for rec in _reference_read_day_csv(path):
            per_minute.setdefault(rec.minute_start, []).append(rec)
    aggregates, entries, prev = [], [], None
    for minute in sorted(per_minute):
        records = per_minute[minute]
        agg = _reference_aggregate_minute(records)
        anomalies = agg_mod.detect_anomalies(agg, prev, records, rules)
        agg_mod.flag_aggregate(agg, anomalies)
        if anomalies:
            entries.append({
                "minute_start": format_ts(minute),
                "aggregate": agg,
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
                    for r in records
                ],
            })
        aggregates.append(agg)
        prev = agg
    return aggregates, entries


def _reference_parse_csv(path):
    """``audit._parse_csv`` as it read one row at a time, into dicts."""
    raw = path.read_bytes()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise audit.UnreadableCsv(path, raw.count(b"\n", 0, exc.start) + 1, exc) from exc
    if not lines or lines[0].split(",") != audit.CSV_COLUMNS:
        raise audit.UnreadableCsv(path, 1, "unexpected CSV header")
    epoch = lru_cache(maxsize=None)(audit._epoch)
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != len(audit.CSV_COLUMNS):
                raise ValueError(f"{len(cells)} cells, expected {len(audit.CSV_COLUMNS)}")
            row = {
                "minute": epoch(cells[0]),
                "meter_id": int(cells[1]),
                "phase": int(cells[2]),
                "power": float(cells[3]) if cells[3] else None,
                "voltage": float(cells[4]) if cells[4] else None,
                "pf": float(cells[6]) if cells[6] else None,
                "frequency": float(cells[7]) if cells[7] else None,
                "samples": int(cells[9]),
            }
            if row["samples"] > 0 and None in (row["power"], row["voltage"], row["pf"], row["frequency"]):
                raise ValueError("a row with samples has an empty reading")
        except ValueError as exc:
            raise audit.UnreadableCsv(path, number, exc) from exc
        rows.append(row)
    return rows


def _reference_replay(paths, date, rules, producer):
    """``audit.replay_day``'s row-at-a-time fusion: (batch bytes, flagged minutes, missing windows, energy)."""
    per_minute = {}
    for path in paths:
        for row in _reference_parse_csv(path):
            per_minute.setdefault(row["minute"], []).append(row)
    day0 = audit._epoch(f"{date}T00:00:00Z")
    flagged, per_window, prev_total, energy = [], {}, None, 0.0
    for minute in sorted(per_minute):
        rows = sorted(per_minute[minute], key=lambda r: (r["meter_id"], r["phase"]))
        present = [r for r in rows if r["samples"] > 0]
        n = len(present)
        total = sum(r["power"] for r in present)
        avg_v = sum(r["voltage"] for r in present) / n if n else None
        avg_f = sum(r["frequency"] for r in present) / n if n else None
        codes = set()
        for r in present:
            if not rules.phase_power_range[0] <= r["power"] <= rules.phase_power_range[1]:
                codes.add("RANGE_POWER")
            if not rules.voltage_range[0] <= r["voltage"] <= rules.voltage_range[1]:
                codes.add("RANGE_VOLTAGE")
            if not rules.frequency_range[0] <= r["frequency"] <= rules.frequency_range[1]:
                codes.add("RANGE_FREQUENCY")
            if abs(r["pf"]) > 1.0:
                codes.add("PF_BOUNDS")
        if prev_total is not None and abs(total - prev_total) > rules.max_ramp_watts_per_minute:
            codes.add("RAMP")
        prev_total = total
        agg = {
            "minute_start": audit._ts(minute),
            "total_power": float(total),
            "avg_voltage": None if avg_v is None else float(avg_v),
            "avg_frequency": None if avg_f is None else float(avg_f),
            "phase_count": n,
            "quality": "FLAGGED" if codes else ("PARTIAL" if 0 < n < TOTAL_PHASES else "OK"),
            "flags": sorted(codes),
        }
        if codes:
            flagged.append(audit._ts(minute))
        else:
            energy += float("%.3f" % total) * 1 / 60000.0
        per_window.setdefault((minute % 86400) // 300, []).append(agg)
    batch_bytes = {}
    for w, aggs in sorted(per_window.items()):
        start = day0 + w * 300
        batch = {
            "batch_id": f"{producer}-{date.replace('-', '')}-{w:03d}",
            "window_start": audit._ts(start),
            "window_end": audit._ts(start + 300),
            "producer_id": producer,
            "schema_version": 1,
            "aggregates": sorted(aggs, key=lambda a: a["minute_start"]),
        }
        batch_bytes[w] = audit._canon(batch).encode("utf-8")
    missing = [w for w in range(WINDOWS_PER_DAY) if w not in per_window]
    return batch_bytes, flagged, missing, repr(energy)


# -- generated days -----------------------------------------------------------

_STAMPS = [f"{DATE}T00:0{m}:00Z" for m in range(7)] + [f"{DATE}T00:05:30Z", "2025-06-02T00:00:00Z"]
_SPECIAL = st.sampled_from(["nan", "-0.000", "0.000", "inf", "-inf"])


def _reading(lo, hi):
    plain = st.floats(lo, hi).map("{:.3f}".format)
    return st.one_of(plain, plain, plain, _SPECIAL)


_READINGS = (
    _reading(-300.0, 6500.0),  # power
    _reading(200.0, 260.0),  # voltage
    _reading(0.0, 30.0),  # current
    _reading(-1.2, 1.2),  # power factor
    _reading(49.3, 50.7),  # frequency
    _reading(0.0, 6500.0),  # apparent power
)
_BAD = st.sampled_from(["x", "", " 4", "4,0", "2025-6-01T00:01:00Z", "1e3", "٤"])  # quoting: its own test


@st.composite
def _row(draw, meter):
    stamp = draw(st.sampled_from(_STAMPS))
    phase = draw(st.sampled_from(["1", "2", "3"]))
    samples = draw(st.sampled_from(["0", "0", "3", "40"]))
    if samples == "0" and draw(st.booleans()):
        readings = [""] * 6
    else:
        readings = [draw(strategy) for strategy in _READINGS]
    cells = [stamp, meter, phase, *readings, samples]
    if draw(st.integers(0, 150)) == 0:  # now and then a cell neither reader accepts, or one only some do
        cells[draw(st.integers(0, 9))] = draw(_BAD)
    return cells


@st.composite
def _day(draw):
    """Up to four files over two collector roots: [(root, name, rows)]."""
    files = []
    for k in range(draw(st.integers(1, 4))):
        meter = draw(st.sampled_from(["1", "2", "3", "12"]))
        unique = draw(st.integers(0, 3)) > 0  # mostly no (minute, phase) twice in a file
        rows = draw(st.lists(_row(meter), max_size=14, unique_by=(lambda r: (r[0], r[2])) if unique else None))
        files.append((draw(st.sampled_from("AB")), f"SEM{k + 1}{draw(st.sampled_from(['', '0']))}.csv", rows))
    return files


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:  # UnreadableCsv and DuplicatePhase too
        return type(exc).__name__, str(exc)


def _aggregates_text(aggregates):
    """The aggregates as the chain and the sidecar see them; nan compares equal as text."""
    return json.dumps(aggregates)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(day=_day())
def test_both_readers_agree_with_their_row_at_a_time_reference(tmp_path_factory, day):
    home = tmp_path_factory.mktemp("day")
    paths = []
    for root, name, rows in day:
        path = home / root / DATE / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"{line}\n" for line in [CSV_HEADER, *map(",".join, rows)]))
        paths.append(path)
    paths.sort()
    rules = AnomalyRules(max_ramp_watts_per_minute=2000.0)

    for path in paths:
        assert repr(_outcome(_records, path)) == repr(_outcome(_reference_read_day_csv, path))

    def fuse(paths):
        stamps = {}
        return fuse_day([read_day_columns(path, stamps) for path in paths], rules)

    expected = _outcome(_reference_fuse, paths, rules)
    fused = _outcome(fuse, paths)
    if isinstance(expected[0], str):
        event(f"aggregator refuses: {expected[0]}")
        assert fused == expected
    else:
        event(f"aggregator flags {'some' if expected[1] else 'no'} minutes")
        assert _aggregates_text(fused[0]) == _aggregates_text(expected[0])
        assert [a["flags"] for a in fused[0]] == [a["flags"] for a in expected[0]]
        assert json.dumps(fused[1], sort_keys=True) == json.dumps(expected[1], sort_keys=True)

    roots = sorted({home / root for root, _, _ in day})
    replay = _outcome(audit.replay_day, roots, DATE, rules, "plant-1")
    if isinstance(replay, audit.DayReplay):
        replay = replay.batch_bytes, replay.flagged_minutes, replay.missing_windows, repr(replay.energy_kwh)
    assert replay == _outcome(_reference_replay, paths, DATE, rules, "plant-1")
