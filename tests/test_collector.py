from collections import Counter
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carboncert.collector import (
    ACCEPTED,
    CSV_HEADER,
    DUPLICATE,
    REJECTED,
    Collector,
    CollectorConfig,
    DayArrays,
    IngestCounts,
    IoFailure,
    read_day_csv,
)
from carboncert.metersim import ReadingColumns, TransportMessage
from carboncert.model import MINUTES_PER_DAY, PHASES, SECONDS_PER_DAY, MinuteRecord, PhaseReading, format_ts, parse_date

DAY0 = parse_date("2025-06-01")
ASSIGNED = {"A": frozenset({1, 2, 3, 4}), "B": frozenset({5, 6, 7, 8})}


def _msg(meter=1, phase=1, ts=DAY0, power=4000.0, attempt=1):
    r = PhaseReading(meter, phase, ts, power, 230.0, 17.9, 0.97, 50.0, power / 0.97)
    return TransportMessage(r, attempt)


def _collector(tmp_path, cid="A"):
    return Collector(CollectorConfig(cid, ASSIGNED[cid], tmp_path))


def _records(day):
    """``close_day``'s arrays as minute records, in file order, an empty cell as None."""
    averages = [
        [None if empty else value for value, empty in zip(values, cells)]
        for values, cells in zip(day.averages.tolist(), day.empty.tolist())
    ]
    columns = (day.meter_id.tolist(), day.phase.tolist(), day.minute_start.tolist(), *averages, day.sample_count.tolist())
    return list(map(MinuteRecord._make, zip(*columns)))


def _day(records):
    """Minute records, in the order given, as the arrays ``write_day_csv`` takes."""
    averages = [[rec[k] for rec in records] for k in range(3, 9)]
    return DayArrays(
        *(np.array([rec[k] for rec in records], dtype=np.int64) for k in range(3)),
        np.array([[0.0 if value is None else value for value in column] for column in averages]),
        np.array([[value is None for value in column] for column in averages], dtype=bool),
        np.array([rec.sample_count for rec in records], dtype=np.int64),
    )


def _minute(day, meter=1, phase=1, minute_start=DAY0):
    (rec,) = [r for r in _records(day) if (r.meter_id, r.phase, r.minute_start) == (meter, phase, minute_start)]
    return rec


def _columns(readings):
    fields = list(zip(*readings)) or [()] * 9
    return ReadingColumns(*(np.array(col, dtype=np.int64 if k < 3 else np.float64) for k, col in enumerate(fields)))


def test_ingest_accepts_assigned_meters(tmp_path):
    c = _collector(tmp_path)
    assert c.ingest(_msg(meter=1)) == ACCEPTED
    assert c.ingest(_msg(meter=4)) == ACCEPTED


def test_ingest_rejects_unassigned_meter(tmp_path):
    c = _collector(tmp_path, "A")
    assert c.ingest(_msg(meter=5)) == REJECTED
    b = _collector(tmp_path, "B")
    assert b.ingest(_msg(meter=5)) == ACCEPTED
    assert b.ingest(_msg(meter=1)) == REJECTED


def test_ingest_deduplicates_on_identity_key(tmp_path):
    c = _collector(tmp_path)
    assert c.ingest(_msg(ts=DAY0 + 5)) == ACCEPTED
    assert c.ingest(_msg(ts=DAY0 + 5, attempt=2)) == DUPLICATE
    # different phase or timestamp is a new sample
    assert c.ingest(_msg(phase=2, ts=DAY0 + 5)) == ACCEPTED
    assert c.ingest(_msg(ts=DAY0 + 6)) == ACCEPTED


def test_close_minute_means(tmp_path):
    c = _collector(tmp_path)
    for i, p in enumerate([1000.0, 2000.0, 3000.0]):
        c.ingest(_msg(ts=DAY0 + i, power=p))
    rec = _minute(c.close_day("2025-06-01"))
    assert rec.sample_count == 3
    assert rec.avg_active_power == pytest.approx(2000.0)
    assert rec.avg_voltage == pytest.approx(230.0)
    assert rec.avg_power_factor == pytest.approx(0.97)


def test_close_minute_duplicate_does_not_skew_mean(tmp_path):
    c = _collector(tmp_path)
    c.ingest(_msg(ts=DAY0, power=1000.0))
    c.ingest(_msg(ts=DAY0, power=1000.0, attempt=2))
    c.ingest(_msg(ts=DAY0 + 1, power=3000.0))
    rec = _minute(c.close_day("2025-06-01"))
    assert rec.sample_count == 2
    assert rec.avg_active_power == pytest.approx(2000.0)


def test_close_minute_empty_yields_zero_count_nulls(tmp_path):
    rec = _minute(_collector(tmp_path).close_day("2025-06-01"))
    assert rec.sample_count == 0
    assert rec.avg_active_power is None and rec.avg_voltage is None


def test_close_day_emits_full_grid(tmp_path):
    c = _collector(tmp_path)
    c.ingest(_msg(ts=DAY0 + 61, power=500.0))
    records = _records(c.close_day("2025-06-01"))
    assert len(records) == 4 * 3 * MINUTES_PER_DAY
    # file order: meter, then minute, then phase
    assert [r[:3] for r in records] == [
        (m, p, DAY0 + 60 * k) for m in (1, 2, 3, 4) for k in range(MINUTES_PER_DAY) for p in PHASES
    ]
    nonempty = [r for r in records if r.sample_count]
    assert len(nonempty) == 1
    assert nonempty[0].minute_start == DAY0 + 60


def test_csv_round_trip_and_format(tmp_path):
    c = _collector(tmp_path)
    c.ingest(_msg(ts=DAY0 + 600, power=1234.5678))
    records = c.close_day("2025-06-01")
    paths = c.write_day_csv("2025-06-01", records)
    assert sorted(p.name for p in paths) == ["SEM1.csv", "SEM2.csv", "SEM3.csv", "SEM4.csv"]
    text = (tmp_path / "A" / "2025-06-01" / "SEM1.csv").read_text()
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * MINUTES_PER_DAY + 1 and lines[-1] == ""
    populated = [ln for ln in lines if ",1234.568," in ln]
    assert populated == [
        "2025-06-01T00:10:00Z,1,1,1234.568,230.000,17.900,0.970,50.000,"
        + format(1234.5678 / 0.97, ".3f")
        + ",1"
    ]
    empty_row = lines[1]
    assert empty_row == "2025-06-01T00:00:00Z,1,1,,,,,,,0"
    parsed = read_day_csv(tmp_path / "A" / "2025-06-01" / "SEM1.csv")
    assert len(parsed) == 3 * MINUTES_PER_DAY
    rec = [r for r in parsed if r.sample_count][0]
    assert rec.minute_start == DAY0 + 600
    assert rec.avg_active_power == pytest.approx(1234.568)


def test_write_spells_a_negative_zero_average_as_zero(tmp_path):
    c = _collector(tmp_path)
    full = MinuteRecord(1, 1, DAY0, *[-0.0] * 6, 3)
    partial = MinuteRecord(1, 2, DAY0, -0.0, None, -0.0, None, None, -0.0, 3)
    c.write_day_csv("2025-06-01", _day([full, partial]))
    assert (tmp_path / "A" / "2025-06-01" / "SEM1.csv").read_text().split("\n")[1:3] == [
        "2025-06-01T00:00:00Z,1,1,0.000,0.000,0.000,0.000,0.000,0.000,3",
        "2025-06-01T00:00:00Z,1,2,0.000,,0.000,,,0.000,3",
    ]


def test_csv_rewrite_is_byte_identical(tmp_path):
    c = _collector(tmp_path)
    for i in range(30):
        c.ingest(_msg(ts=DAY0 + i, power=100.0 * i))
    records = c.close_day("2025-06-01")
    path = tmp_path / "A" / "2025-06-01" / "SEM1.csv"
    c.write_day_csv("2025-06-01", records)
    first = path.read_bytes()
    c.write_day_csv("2025-06-01", records)
    assert path.read_bytes() == first
    assert b"\r" not in first  # LF endings only


def test_write_rejects_unassigned_record(tmp_path):
    c = _collector(tmp_path, "A")
    good = _records(c.close_day("2025-06-01"))[0]
    with pytest.raises(ValueError, match=r"unassigned meters \[7\]"):
        c.write_day_csv("2025-06-01", _day([good, good._replace(meter_id=7)]))
    assert not (tmp_path / "A").exists()  # refused before any file is written


def test_write_surfaces_io_failure(tmp_path):
    target = tmp_path / "A"
    target.write_text("not a directory")
    c = _collector(tmp_path, "A")
    with pytest.raises(IoFailure):
        c.write_day_csv("2025-06-01", _day(_records(c.close_day("2025-06-01"))[:3]))


def test_read_rejects_a_later_respelling_of_a_parsed_minute(tmp_path):
    c = _collector(tmp_path)
    c.ingest(_msg(ts=DAY0 + 60))
    c.write_day_csv("2025-06-01", c.close_day("2025-06-01"))
    path = tmp_path / "A" / "2025-06-01" / "SEM1.csv"
    lines = path.read_text().split("\n")
    assert lines[4].startswith("2025-06-01T00:01:00Z,1,1,")  # parsed before the respelled row
    lines[5] = lines[5].replace("2025-06-01T00:01:00Z", "2025-6-01T00:01:00Z")
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="2025-6-01T00:01:00Z"):
        read_day_csv(path)


@pytest.mark.parametrize(
    "edit, why",
    [
        (lambda cells: cells + ["junk", "more"], "12 cells"),
        (lambda cells: cells[:9], "9 cells"),
        (lambda cells: cells[:3] + [""] + cells[4:], "empty reading"),
        (lambda cells: cells[:7] + [""] + cells[8:], "empty reading"),
    ],
    ids=["extra_cells", "missing_cell", "empty_power", "empty_frequency"],
)
def test_read_rejects_a_row_of_other_width_or_with_an_empty_reading(tmp_path, edit, why):
    c = _collector(tmp_path)
    c.ingest(_msg(ts=DAY0 + 60))
    c.write_day_csv("2025-06-01", c.close_day("2025-06-01"))
    path = tmp_path / "A" / "2025-06-01" / "SEM1.csv"
    lines = path.read_text().split("\n")
    assert lines[4].startswith("2025-06-01T00:01:00Z,1,1,") and lines[4].endswith(",1")
    lines[4] = ",".join(edit(lines[4].split(",")))
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"SEM1.csv line 5: .*{why}"):
        read_day_csv(path)


def test_read_names_the_file_and_line_of_a_byte_that_is_not_utf8(tmp_path):
    c = _collector(tmp_path)
    c.write_day_csv("2025-06-01", c.close_day("2025-06-01"))
    path = tmp_path / "A" / "2025-06-01" / "SEM1.csv"
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b",0", b",\xff", 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=f"^{path} line 3: 'utf-8' codec can't decode byte 0xff in position") as exc:
        read_day_csv(path)
    assert type(exc.value) is ValueError


def test_read_rejects_bad_header(tmp_path):
    p = tmp_path / "SEM1.csv"
    p.write_text("time,stuff\n1,2\n")
    with pytest.raises(ValueError):
        read_day_csv(p)


def test_read_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_day_csv(tmp_path / "absent.csv")


def test_close_day_keeps_other_dates_buffered(tmp_path):
    c = _collector(tmp_path)
    c.ingest(_msg(ts=DAY0 + SECONDS_PER_DAY + 5, power=700.0))
    c.ingest(_msg(ts=DAY0 + 5, power=300.0))
    assert _minute(c.close_day("2025-06-01")).avg_active_power == 300.0
    assert _minute(c.close_day("2025-06-02"), minute_start=DAY0 + SECONDS_PER_DAY).avg_active_power == 700.0
    assert sum(c.close_day("2025-06-02").sample_count) == 0


def test_ingest_columns_counts_outcomes_like_ingest(tmp_path):
    readings = [_msg(meter=m, ts=DAY0 + t).reading for m in (1, 5) for t in range(3)]
    index = np.array([0, 1, 1, 3, 2, 0, 4])  # rows 0-2 meter 1, rows 3-5 meter 5
    c = _collector(tmp_path)
    counts = c.ingest_columns(_columns(readings), index)
    assert counts == IngestCounts(accepted=3, duplicates=2, rejected=2)
    one_by_one = _collector(tmp_path)
    outcomes = Counter(one_by_one.ingest(TransportMessage(readings[i], 1)) for i in index.tolist())
    assert outcomes == {ACCEPTED: 3, DUPLICATE: 2, REJECTED: 2}
    c.ingest_columns(_columns(readings), index[:2])  # a redelivered batch adds no sample
    assert _records(c.close_day("2025-06-01")) == _records(one_by_one.close_day("2025-06-01"))


_sample = st.tuples(
    st.integers(1, 2),  # phase
    st.integers(0, 179),  # second of the day: three minutes
    st.floats(-1e9, 1e9, allow_nan=False),  # active power, summed in ts order
    st.integers(1, 2),  # deliveries
)


@settings(max_examples=40, deadline=None)
@given(samples=st.lists(_sample, min_size=1, max_size=30, unique_by=lambda s: s[:2]), data=st.data())
def test_close_day_is_independent_of_arrival_order(samples, data):
    readings = [PhaseReading(1, p, DAY0 + t, w, 230.0, 1.0, 0.97, 50.0, w) for p, t, w, _ in samples]
    messages = [TransportMessage(r, a) for r, s in zip(readings, samples) for a in range(1, s[3] + 1)]
    arrived = data.draw(st.permutations(messages))
    config = CollectorConfig("A", frozenset({1}), Path("unused"))
    in_order, shuffled, columnar = Collector(config), Collector(config), Collector(config)
    for msg in messages:
        in_order.ingest(msg)
    for msg in arrived:
        shuffled.ingest(msg)
    columnar.ingest_columns(_columns(readings), np.array([readings.index(m.reading) for m in arrived]))
    expected = _records(in_order.close_day("2025-06-01"))
    assert _records(shuffled.close_day("2025-06-01")) == expected
    assert _records(columnar.close_day("2025-06-01")) == expected
    for rec in (r for r in expected if r.minute_start < DAY0 + 180):
        in_minute = sorted(
            (r.ts, r.active_power) for r in readings if r.phase == rec.phase and r.ts - r.ts % 60 == rec.minute_start
        )
        total = 0.0
        for _, w in in_minute:  # left to right, in ts order
            total += w
        assert rec.sample_count == len(in_minute)
        assert rec.avg_active_power == (total / len(in_minute) if in_minute else None)


class _GlobalSortCollector:
    """The close as it was before it went one meter at a time: ingest_columns
    copies each delivery's rows, deduplicated by key against every key
    accepted before, and close_day joins every buffered sample, sorts them
    all by key and keeps each key's first arrival (deliveries in the order
    given, then the messages ingested one by one). It returns the minute
    counts and means in file order, a mean without samples as nan."""

    def __init__(self, assigned):
        self.assigned = frozenset(assigned)
        self.seen, self.readings, self.blocks = set(), [], []

    def ingest(self, msg):
        r = msg.reading
        if r.meter_id not in self.assigned:
            return REJECTED
        if _packed(r.meter_id, r.phase, r.ts) in self.seen:
            return DUPLICATE
        self.seen.add(_packed(r.meter_id, r.phase, r.ts))
        self.readings.append(r)
        return ACCEPTED

    def ingest_columns(self, readings, index):
        mine = index[np.isin(readings.meter_id[index], sorted(self.assigned))]
        keys, first = np.unique(_packed(*(col[mine] for col in readings[:3])), return_index=True)
        rows = mine[first[~np.isin(keys, list(self.seen))]]
        self.seen.update(_packed(*(col[rows] for col in readings[:3])).tolist())
        self.blocks.append(ReadingColumns(*(col[rows] for col in readings)))
        return IngestCounts(rows.shape[0], mine.shape[0] - rows.shape[0], index.shape[0] - mine.shape[0])

    def close_day(self, date):
        day0 = parse_date(date)
        samples = ReadingColumns(*map(np.concatenate, zip(*self.blocks, _columns(self.readings))))
        self.readings, self.blocks = [], []
        key = _packed(*samples[:3])
        order = np.argsort(key, kind="stable")
        key = key[order]
        rows = order[np.concatenate(([True], key[1:] != key[:-1]))[: key.shape[0]]]
        ts = samples.ts[rows]
        in_day = (ts >= day0) & (ts < day0 + SECONDS_PER_DAY)
        self.blocks.append(ReadingColumns(*(col[rows[~in_day]] for col in samples)))
        rows, ts = rows[in_day], ts[in_day]
        meters = sorted(self.assigned)
        bins = (np.searchsorted(meters, samples.meter_id[rows]) * MINUTES_PER_DAY + (ts - day0) // 60) * 3
        bins += samples.phase[rows] - 1
        size = len(meters) * MINUTES_PER_DAY * 3
        counts = np.bincount(bins, minlength=size)
        with np.errstate(invalid="ignore"):
            return counts, np.array([np.bincount(bins, weights=col[rows], minlength=size) / counts for col in samples[3:]])


def _packed(meter_id, phase, ts):
    return ((meter_id * 4 + phase) << 40) + ts


def _reading(meter, phase, second, power):
    return PhaseReading(meter, phase, DAY0 + second, power, 230.0, 1.0, 0.97, 50.0, -power)


# seconds from the day's midnight: the date's first minutes and last, the next
# date's first (held for a later close) and the previous date's last
_second = st.sampled_from([0, 1, 59, 60, 61, 179, SECONDS_PER_DAY - 1, SECONDS_PER_DAY, SECONDS_PER_DAY + 61, -1])
_power = st.floats(-1e9, 1e9)
_meter = st.sampled_from([1, 2, 4, 5])  # meter 5 is not collector A's


@st.composite
def _delivery(draw):
    """One delivery: its readings and the row of each message. Drawn plain,
    the rows are one meter's in (phase, ts) order, each key once, as a
    DayStream meter's are. A draw may also repeat a key on a row of its own,
    add rows of a second meter or shuffle the rows."""
    meter = draw(_meter)
    keys = sorted(draw(st.sets(st.tuples(st.sampled_from(PHASES), _second), max_size=6)))
    rows = [(meter, phase, second) for phase, second in keys]
    if rows and draw(st.integers(0, 3)) == 0:  # one key on two rows
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    if draw(st.integers(0, 3)) == 0:
        rows += draw(st.lists(st.tuples(_meter, st.sampled_from(PHASES), _second), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        rows = draw(st.permutations(rows))
    readings = [_reading(*row, draw(_power)) for row in rows]
    index = draw(st.lists(st.integers(0, len(rows) - 1), max_size=2 * len(rows))) if rows else []
    return readings, index


_op = st.one_of(
    st.tuples(st.just("columns"), _delivery()),
    st.tuples(st.just("message"), st.builds(_reading, _meter, st.sampled_from(PHASES), _second, _power)),
    st.tuples(st.just("close"), st.sampled_from(["2025-06-01", "2025-06-02"])),
)

_TWO_DELIVERIES_OF_ONE_METER = [  # keys in order, the second delivery's overlapping the first's
    ("columns", ([_reading(2, 1, 0, 10.0), _reading(2, 1, 1, 20.0)], [1, 0, 1])),
    ("columns", ([_reading(2, 1, 1, 40.0), _reading(2, 2, 0, 50.0)], [0, 1])),
]


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_op, max_size=8))
@example(ops=[])  # a collector with no samples
@example(ops=_TWO_DELIVERIES_OF_ONE_METER)
@example(ops=[  # one meter's minute from a row-path delivery and a message: summed in ts order, the sum is 1.0
    ("columns", ([_reading(2, 1, 1, 1e16), _reading(2, 1, 59, 1.0)], [0, 1])),
    ("message", _reading(2, 1, 0, -1e16)),
])
@example(ops=[  # the next date's samples held at a close, then a row-path delivery of the same meter and minute
    ("columns", ([_reading(4, 1, SECONDS_PER_DAY + 1, 1e16), _reading(4, 1, SECONDS_PER_DAY + 59, 1.0)], [0, 1])),
    ("close", "2025-06-01"),
    ("columns", ([_reading(4, 1, SECONDS_PER_DAY, -1e16)], [0])),
])
def test_close_day_matches_the_global_sort_kernel(ops):
    config = CollectorConfig("A", ASSIGNED["A"], Path("unused"))
    collector, reference = Collector(config), _GlobalSortCollector(ASSIGNED["A"])
    for op, arg in ops + [("close", "2025-06-01"), ("close", "2025-06-02"), ("close", "2025-06-01")]:
        if op == "columns":
            readings, index = arg[0], np.array(arg[1], dtype=np.int64)
            counts = collector.ingest_columns(_columns(readings), index)
            assert counts == reference.ingest_columns(_columns(readings), index)
        elif op == "message":
            assert collector.ingest(TransportMessage(arg, 1)) == reference.ingest(TransportMessage(arg, 1))
        else:
            day, (counts, means) = collector.close_day(arg), reference.close_day(arg)
            assert np.array_equal(day.sample_count, counts)
            assert np.array_equal(day.empty, np.broadcast_to(counts == 0, means.shape))
            assert np.array_equal(np.where(day.empty, np.nan, day.averages), means, equal_nan=True)  # finite means


_life_op = st.one_of(
    _op,
    st.tuples(st.just("again"), st.integers(0, 7)),  # an earlier delivery, delivered once more
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_life_op, max_size=10))
@example(ops=[  # one reading delivered twice as columns, then as a message
    ("columns", ([_reading(1, 1, 0, 10.0)], [0])),
    ("again", 0),
    ("message", _reading(1, 1, 0, 10.0)),
])
@example(ops=[  # a message first, then a DayStream-like delivery that holds its key
    ("message", _reading(2, 2, 1, 10.0)),
    ("columns", ([_reading(2, 1, 0, 20.0), _reading(2, 2, 1, 30.0)], [0, 1])),
])
@example(ops=[  # a message after a delivery, then a delivery that holds its key
    ("columns", ([_reading(1, 1, 0, 10.0)], [0])),
    ("message", _reading(2, 2, 1, 10.0)),
    ("columns", ([_reading(2, 1, 0, 20.0), _reading(2, 2, 1, 30.0)], [0, 1])),
])
@example(ops=[  # a key closed with its day is still a duplicate after the close
    ("columns", ([_reading(4, 3, 61, 10.0)], [0, 0])),
    ("close", "2025-06-01"),
    ("again", 0),
    ("message", _reading(4, 3, 61, 20.0)),
])
def test_ingest_counts_are_those_of_per_message_ingest_over_a_collectors_life(ops):
    config = CollectorConfig("A", ASSIGNED["A"], Path("unused"))
    collector, reference = Collector(config), Collector(config)  # the reference takes one message at a time
    delivered = []
    for op, arg in ops + [("close", "2025-06-01"), ("close", "2025-06-02")]:
        if op == "again":
            if not delivered:
                continue
            op, arg = "columns", delivered[arg % len(delivered)]
        if op == "columns":
            delivered.append(arg)
            readings, index = arg[0], np.array(arg[1], dtype=np.int64)
            counts = collector.ingest_columns(_columns(readings), index)
            outcomes = Counter(reference.ingest(TransportMessage(readings[i], 1)) for i in index.tolist())
            assert counts == (outcomes[ACCEPTED], outcomes[DUPLICATE], outcomes[REJECTED])
        elif op == "message":
            assert collector.ingest(TransportMessage(arg, 1)) == reference.ingest(TransportMessage(arg, 1))
        else:
            day, expected = collector.close_day(arg), reference.close_day(arg)
            for field in ("meter_id", "phase", "minute_start", "sample_count", "empty"):
                assert np.array_equal(getattr(day, field), getattr(expected, field))
            assert np.array_equal(  # finite means
                np.where(day.empty, np.nan, day.averages), np.where(expected.empty, np.nan, expected.averages),
                equal_nan=True,
            )


_ROW = "%s,%s,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%s"


def _fmt(value):
    return "" if value is None else format(value + 0.0, ".3f")


def _reference_files(records, assigned):
    """Each assigned meter's file bytes, as the row writer wrote them before
    close_day returned columns: records regrouped by meter, sorted by
    (minute, phase) and formatted one row at a time."""
    per_meter = {m: [] for m in sorted(assigned)}
    for rec in records:
        per_meter[rec.meter_id].append(rec)
    files = {}
    for meter_id, recs in per_meter.items():
        recs.sort(key=itemgetter(2, 1))
        lines = [CSV_HEADER]
        for meter, phase, minute, *avg, count in recs:
            if None in avg:
                lines.append(",".join((format_ts(minute), str(meter), str(phase), *map(_fmt, avg), str(count))))
            else:
                p, v, i, pf, f, s = avg
                lines.append(_ROW % (
                    format_ts(minute), meter, phase, p + 0.0, v + 0.0, i + 0.0, pf + 0.0, f + 0.0, s + 0.0, count
                ))
        files[f"SEM{meter_id}.csv"] = ("\n".join(lines) + "\n").encode("utf-8")
    return files


_average = st.one_of(
    st.none(),
    st.floats(),  # nan and +-inf among them
    st.floats(-1e13, 1e13),
    st.sampled_from([-0.0, 0.0, -0.0004, 0.0005, 1e12, -1e12, 999_999_999_999.9995, 1e12 + 0.125]),
)
_row = st.one_of(
    st.just(((None,) * 6, 0)),  # an empty minute
    st.tuples(st.tuples(*[_average] * 6), st.integers(0, 120)),  # full, partial, or values with zero samples
)
_key = st.tuples(st.integers(1, 4), st.integers(0, MINUTES_PER_DAY - 1), st.sampled_from(PHASES))  # meter, minute, phase


@settings(max_examples=60, deadline=None)
@given(rows=st.dictionaries(_key, _row, max_size=40))
def test_writer_matches_the_reference_row_writer(tmp_path_factory, rows):
    records = [
        MinuteRecord(meter, phase, DAY0 + 60 * minute, *avg, count)
        for (meter, minute, phase), (avg, count) in sorted(rows.items())  # file order
    ]
    root = tmp_path_factory.mktemp("writer")
    c = _collector(root)
    paths = c.write_day_csv("2025-06-01", _day(records))
    assert {p.name: p.read_bytes() for p in paths} == _reference_files(records, ASSIGNED["A"])
