"""Data collection layer: ingest, deduplicate, minute-close, persist CSVs.

Each collector owns a disjoint meter subset (A: 1-4, B: 5-8 in the
reference configuration). Ingestion is idempotent under at-least-once
redelivery: each (meter_id, phase, ts) key is accepted once and its
redeliveries are classified as duplicates. Messages arrive one at a time
(``ingest``) or as a delivery of columns (``ingest_columns``); both
buffer the accepted samples, and ``close_day`` averages them per minute in
one array kernel.

CSV contract (bit-exact): one file per meter per day at
``<output_root>/<collector_id>/<YYYY-MM-DD>/SEM<meter_id>.csv``, header
``timestamp_utc,meter_id,phase,active_power_w,voltage_v,current_a,power_factor,frequency_hz,apparent_power_va,sample_count``,
reals at 3 decimals, empty fields for absent averages, LF endings, UTF-8,
no quoting: a cell is the text between two commas, so a quoted cell such as
``"4000.000"`` is refused with its file and line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product, repeat
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional

import numpy as np

from .model import (
    MINUTES_PER_DAY,
    PHASES,
    SECONDS_PER_DAY,
    MinuteRecord,
    format_ts,
    parse_date,
    parse_ts,
    write_atomic,
)
from .metersim import ReadingColumns, TransportMessage

CSV_HEADER = (
    "timestamp_utc,meter_id,phase,active_power_w,voltage_v,current_a,"
    "power_factor,frequency_hz,apparent_power_va,sample_count"
)

ACCEPTED = "accepted"
DUPLICATE = "duplicate"
REJECTED = "rejected"

_ABSENT = (None,) * 6
_ROW = "%s,%s,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%s"  # a CSV row whose six averages are all present
_MINUTE_PHASE = itemgetter(2, 1)  # a MinuteRecord's (minute_start, phase)


class IoFailure(OSError):
    def __init__(self, path, cause):
        super().__init__(f"I/O failure at {path}: {cause}")
        self.path = Path(path)
        self.cause = cause

    def __reduce__(self):  # so that it crosses a process boundary
        return type(self), (self.path, self.cause)


@dataclass
class CollectorConfig:
    collector_id: str
    assigned_meters: frozenset
    output_root: Path


class IngestCounts(NamedTuple):
    accepted: int
    duplicates: int
    rejected: int


def _pack(meter_id, phase, ts):
    """One int64 per (meter, phase, ts) key, ordered like the tuple; exact for
    every timestamp parse_date can produce (|ts| < 2**39)."""
    return ((meter_id * 4 + phase) << 40) + ts


def _columns(readings: List) -> ReadingColumns:
    """PhaseReadings as columns; the int fields pass through float64 exactly."""
    n = len(readings)
    flat = np.fromiter(chain.from_iterable(readings), np.float64, 9 * n).reshape(n, 9).T
    return ReadingColumns(*(col.astype(np.int64) for col in flat[:3]), *flat[3:])


class Collector:
    """One ingestion context; buffers each accepted sample until its day closes."""

    def __init__(self, config: CollectorConfig):
        self.config = config
        self._seen = set()  # packed keys accepted by ingest
        self._readings: List = []  # PhaseReadings accepted by ingest, in arrival order
        self._blocks: List[ReadingColumns] = []  # samples accepted by ingest_columns or not yet closed

    def ingest(self, msg: TransportMessage) -> str:
        r = msg.reading
        if r.meter_id not in self.config.assigned_meters:
            return REJECTED
        key = ((r.meter_id * 4 + r.phase) << 40) + r.ts  # _pack, inlined on the per-message path
        seen = self._seen
        if key in seen:
            return DUPLICATE
        seen.add(key)
        self._readings.append(r)
        return ACCEPTED

    def ingest_columns(self, readings: ReadingColumns, index: "np.ndarray") -> IngestCounts:
        """Ingest one delivery of messages, given as row indices into a day's
        readings (a row appears once per delivery of it, as in metersim.Delivery).

        The outcomes are those of calling ingest once per message; duplicates
        are counted within this delivery.
        """
        assigned = np.array(sorted(self.config.assigned_meters), dtype=np.int64)
        mine = index[np.isin(readings.meter_id[index], assigned)]
        _, first = np.unique(
            _pack(readings.meter_id[mine], readings.phase[mine], readings.ts[mine]), return_index=True
        )
        rows = mine[first]
        self._blocks.append(ReadingColumns(*(col[rows] for col in readings)))
        return IngestCounts(rows.shape[0], mine.shape[0] - rows.shape[0], index.shape[0] - mine.shape[0])

    def _take_samples(self) -> ReadingColumns:
        """Every buffered sample, in no particular order; the buffers are emptied."""
        if self._readings:
            self._blocks.append(_columns(self._readings))
            self._readings = []
        blocks, self._blocks = self._blocks or [_columns([])], []
        if len(blocks) == 1:
            return blocks[0]
        parts = list(zip(*blocks))  # joined column by column, each column's blocks freed as it is
        del blocks
        return ReadingColumns(*(np.concatenate(parts.pop(0)) for _ in range(len(parts))))

    def close_day(self, date: str) -> List[MinuteRecord]:
        """Close every minute of the date for every assigned meter-phase.

        A minute's means add its samples in ts order, whatever order they
        arrived in. Samples of other dates stay buffered.
        """
        day0 = parse_date(date)
        samples = self._take_samples()
        key = _pack(samples.meter_id, samples.phase, samples.ts)
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(key.shape[0], dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        rows = order[first]  # each key once, in (meter, phase, ts) order
        ts = samples.ts[rows]
        in_day = (ts >= day0) & (ts < day0 + SECONDS_PER_DAY)
        if not in_day.all():
            self._blocks.append(ReadingColumns(*(col[rows[~in_day]] for col in samples)))
            rows, ts = rows[in_day], ts[in_day]
        meters = sorted(self.config.assigned_meters)
        cell = np.searchsorted(meters, samples.meter_id[rows]) * len(PHASES) + samples.phase[rows] - 1
        bins = cell * MINUTES_PER_DAY + (ts - day0) // 60
        size = len(meters) * len(PHASES) * MINUTES_PER_DAY
        counts = np.bincount(bins, minlength=size)
        # bincount adds each bin's weights in input order: (meter, phase, ts) order.
        sums = [np.bincount(bins, weights=col[rows], minlength=size) for col in samples[3:]]
        with np.errstate(invalid="ignore"):  # empty minutes: nan, written as None below
            means = zip(*(np.divide(s, counts).tolist() for s in sums))
        return [
            MinuteRecord(meter_id, phase, day0 + 60 * m, *avg, n)
            if n
            else MinuteRecord(meter_id, phase, day0 + 60 * m, *_ABSENT, 0)
            for (meter_id, phase, m), n, avg in zip(
                product(meters, PHASES, range(MINUTES_PER_DAY)), counts.tolist(), means
            )
        ]

    def write_day_csv(self, date: str, records: Iterable[MinuteRecord]) -> List[Path]:
        """One CSV per assigned meter; atomic publish; byte-stable on rewrite."""
        per_meter: Dict[int, List[MinuteRecord]] = {m: [] for m in sorted(self.config.assigned_meters)}
        for rec in records:
            if rec.meter_id not in per_meter:
                raise ValueError(f"record for unassigned meter {rec.meter_id}")
            per_meter[rec.meter_id].append(rec)
        day_dir = Path(self.config.output_root) / self.config.collector_id / date
        stamps = {m: format_ts(m) for m in {r.minute_start for recs in per_meter.values() for r in recs}}
        paths = []
        for meter_id, recs in per_meter.items():
            recs.sort(key=_MINUTE_PHASE)
            path = day_dir / f"SEM{meter_id}.csv"
            lines = [CSV_HEADER]
            for meter, phase, minute, *avg, count in recs:
                if None in avg:
                    lines.append(",".join((stamps[minute], str(meter), str(phase), *map(_fmt, avg), str(count))))
                else:  # +0.0 writes -0.0 as 0.000, as _fmt does
                    p, v, i, pf, f, s = avg
                    lines.append(_ROW % (
                        stamps[minute], meter, phase, p + 0.0, v + 0.0, i + 0.0, pf + 0.0, f + 0.0, s + 0.0, count
                    ))
            data = ("\n".join(lines) + "\n").encode("utf-8")
            try:
                day_dir.mkdir(parents=True, exist_ok=True)
                write_atomic(path, data)
            except OSError as exc:
                raise IoFailure(path, exc) from exc
            paths.append(path)
        return paths


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else format(value + 0.0, ".3f")


class DayColumns(NamedTuple):
    """A day file's rows as columns, in file order: one list per
    ``MinuteRecord`` field, an empty cell as None."""

    meter_id: List[int]
    phase: List[int]
    minute_start: List[int]
    avg_active_power: List[Optional[float]]
    avg_voltage: List[Optional[float]]
    avg_current: List[Optional[float]]
    avg_power_factor: List[Optional[float]]
    avg_frequency: List[Optional[float]]
    avg_apparent_power: List[Optional[float]]
    sample_count: List[int]


_WIDTH = len(DayColumns._fields)


def read_day_csv(path) -> List[MinuteRecord]:
    """Parse one per-meter day file back into minute records, as ``read_day_columns`` does."""
    return list(map(MinuteRecord._make, zip(*read_day_columns(path, {}))))


def read_day_columns(path, stamps: Dict[str, int]) -> DayColumns:
    """Parse one per-meter day file into columns. ``stamps`` caches the epoch
    of each timestamp text; a day's files share 1,440 spellings, so pass them
    one dict.

    A row must have exactly the header's cells, and a row with samples a
    power, voltage, power factor and frequency; else ValueError names the
    file and line."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoFailure(path, exc) from exc
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path} line {line}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header in {path}")
    body = lines[1:]
    if not body:
        return DayColumns(*([] for _ in range(_WIDTH)))
    try:
        if set(map(str.count, body, repeat(","))) != {_WIDTH - 1}:
            raise ValueError("a row of another width")
        cells = ",".join(body).split(",")  # row-major: row k is cells[k * _WIDTH:(k + 1) * _WIDTH]
        stamp, meter, phase, power, voltage, current, pf, frequency, apparent, count = (
            cells[i::_WIDTH] for i in range(_WIDTH)
        )
        for text in set(stamp).difference(stamps):
            stamps[text] = parse_ts(text)
        samples = _ints(count)
        for column in (power, voltage, pf, frequency):
            if "" in column and any(n > 0 for n, cell in zip(samples, column) if cell == ""):
                raise ValueError("a row with samples has an empty reading")
        return DayColumns(
            _ints(meter), _ints(phase), list(map(stamps.__getitem__, stamp)),
            _floats(power), _floats(voltage), _floats(current),
            _floats(pf), _floats(frequency), _floats(apparent), samples,
        )
    except ValueError:
        _check_rows(path, lines)  # names the first line a row-at-a-time reading refuses
        raise


def _ints(cells) -> List[int]:
    value = {text: int(text) for text in set(cells)}  # a column repeats a few texts
    return list(map(value.__getitem__, cells))


def _floats(cells) -> List[Optional[float]]:
    if "" not in cells:
        return list(map(float, cells))
    return [None if cell == "" else float(cell) for cell in cells]


def _check_rows(path: Path, lines: List[str]) -> None:
    """Read the data lines one row at a time; ValueError names the first bad line."""
    for line, text in enumerate(lines[1:], start=2):
        row = text.split(",") if text else []  # a blank line has no cell
        try:
            if len(row) != _WIDTH:
                raise ValueError(f"{len(row)} cells, the header has {_WIDTH}")
            stamp, meter, phase, power, voltage, current, pf, frequency, apparent, count = row
            if int(count) > 0 and "" in (power, voltage, pf, frequency):
                raise ValueError("a row with samples has an empty reading")
            int(meter), int(phase), parse_ts(stamp)
            for cell in (power, voltage, current, pf, frequency, apparent):
                if cell != "":
                    float(cell)
        except ValueError as exc:
            raise ValueError(f"{path} line {line}: {exc}") from exc
