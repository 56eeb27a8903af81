"""Data collection layer: ingest, deduplicate, minute-close, persist CSVs.

Each collector owns a disjoint meter subset (A: 1-4, B: 5-8 in the
reference configuration). Ingestion is idempotent under at-least-once
redelivery: each (meter_id, phase, ts) key is accepted once in a
collector's life and its redeliveries, by either path, are classified as
duplicates. Messages arrive one at a time (``ingest``, deduplicated
against a set of keys as they come) or as a delivery of columns
(``ingest_columns``, deduplicated against the sorted keys each earlier
delivery accepted and that set). A collector holds what it accepts until
the day closes: the readings of each message, and of each delivery its
readings and the rows it took, uncopied. A delivery whose rows' keys
strictly increase and belong to one assigned meter, as a
``metersim.DayStream`` meter's do, and that holds no key accepted before,
is deduplicated by row; any other by key.

``close_day`` closes the day one meter at a time. A meter whose samples of
the date one such delivery holds alone is summed per minute from it as it
is; the samples of every other meter are joined and sorted by key before
they are summed. It returns ``DayArrays`` in file order: float64 averages,
and a mask of the cells written empty, which are a minute's six averages
when it has no sample. ``write_day_csv`` writes such rows as given, each
meter's file by one format over its rows; ``read_day_columns`` reads one
file back as ``DayColumns``, lists with None for an empty cell.

CSV contract (bit-exact): one file per meter per day at
``<output_root>/<collector_id>/<YYYY-MM-DD>/SEM<meter_id>.csv``, header
``timestamp_utc,meter_id,phase,active_power_w,voltage_v,current_a,power_factor,frequency_hz,apparent_power_va,sample_count``,
reals at 3 decimals (-0.0 as 0.000), empty fields for absent averages, LF
endings, UTF-8, no quoting: a cell is the text between two commas, so a
quoted cell such as ``"4000.000"`` is refused with its file and line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

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


class DayColumns(NamedTuple):
    """One file's minute rows read back, in file order: one list per
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


class DayArrays(NamedTuple):
    """Minute rows as arrays, one row per (meter, minute, phase): what
    ``close_day`` returns and ``write_day_csv`` writes. ``averages`` holds the
    six averages of ``MinuteRecord`` as float64 rows (shape 6 x rows);
    ``empty`` (bool, the same shape) marks each cell written empty, whatever
    ``averages`` holds there, since nan is an average like any other. The
    keys and counts are int64."""

    meter_id: np.ndarray
    phase: np.ndarray
    minute_start: np.ndarray
    averages: np.ndarray
    empty: np.ndarray
    sample_count: np.ndarray


class _Held(NamedTuple):
    """Accepted samples waiting for their day to close: ``rows`` of
    ``readings``, each key once. ``meter`` is the one meter of a delivery
    whose rows' keys strictly increase, None for any other."""

    readings: ReadingColumns
    rows: np.ndarray
    meter: Optional[int]


def _pack(meter_id, phase, ts):
    """One int64 per (meter, phase, ts) key, ordered like the tuple; exact for
    every timestamp parse_date can produce (|ts| < 2**39)."""
    return ((meter_id * 4 + phase) << 40) + ts


def _columns(readings: List) -> ReadingColumns:
    """PhaseReadings as columns; the int fields pass through float64 exactly."""
    n = len(readings)
    flat = np.fromiter(chain.from_iterable(readings), np.float64, 9 * n).reshape(n, 9).T
    return ReadingColumns(*(col.astype(np.int64) for col in flat[:3]), *flat[3:])


def _samples(held: _Held) -> ReadingColumns:
    """The held rows as columns: the delivery's own where a checked one holds every row."""
    if held.meter is not None and held.rows.shape[0] == held.readings.ts.shape[0]:
        return held.readings
    return ReadingColumns(*(col[held.rows] for col in held.readings))


def _meters(held: _Held) -> List[int]:
    """The meters whose samples ``held`` holds."""
    if held.meter is not None:
        return [held.meter]
    return np.unique(held.readings.meter_id[held.rows]).tolist()


_AVERAGES = 6  # a minute row's averages, power to apparent power

# A row's format by which of its averages' cells are empty (bit k: average k):
# a present average at 3 decimals, an empty cell takes its value and writes nothing.
_ROW_FORMATS = [
    "%s,%d,%d," + ",".join("%.0s" if code >> k & 1 else "%.3f" for k in range(_AVERAGES)) + ",%d\n"
    for code in range(1 << _AVERAGES)
]


class Collector:
    """One ingestion context; holds each accepted sample until its day closes."""

    def __init__(self, config: CollectorConfig):
        self.config = config
        self._seen = set()  # packed keys accepted by ingest, and by the deliveries before its last call
        self._delivered: List[np.ndarray] = []  # packed keys each delivery since then accepted, sorted
        self._readings: List = []  # PhaseReadings accepted by ingest, in arrival order
        self._held: List[_Held] = []  # samples accepted by ingest_columns or not yet closed

    def ingest(self, msg: TransportMessage) -> str:
        r = msg.reading
        if r.meter_id not in self.config.assigned_meters:
            return REJECTED
        if self._delivered:
            self._seen.update(np.concatenate(self._delivered).tolist())
            self._delivered = []
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

        The outcomes are those of calling ingest once per message: a key
        this collector accepted before, by either path and in a day since
        closed too, is a duplicate. Nothing is copied: the collector holds
        ``readings`` and the rows it took until their day closes. Where the
        delivered rows' keys strictly increase, belong to one assigned meter,
        as a ``DayStream`` meter's do, and hold no key accepted before,
        each row is a key and a redelivery repeats its row: the rows are
        deduplicated as they are. Any other delivery is deduplicated by key,
        first arrival first.
        """
        taken = np.zeros(readings.ts.shape[0], dtype=bool)
        taken[index] = True
        rows = np.flatnonzero(taken)
        if rows.shape[0]:
            meter_id, phase, ts = (col[rows] for col in readings[:3])
            key = _pack(meter_id, phase, ts)
            meter = int(meter_id[0])
            if (
                meter == meter_id[-1]
                and meter in self.config.assigned_meters
                and (np.diff(key) > 0).all()
                and not self._accepted_within(int(key[0]), int(key[-1])).shape[0]
            ):
                self._held.append(_Held(readings, rows, meter))
                self._delivered.append(key)
                return IngestCounts(rows.shape[0], index.shape[0] - rows.shape[0], 0)
        assigned = np.array(sorted(self.config.assigned_meters), dtype=np.int64)
        mine = index[np.isin(readings.meter_id[index], assigned)]
        key, first = np.unique(
            _pack(readings.meter_id[mine], readings.phase[mine], readings.ts[mine]), return_index=True
        )
        if key.shape[0]:
            new = ~np.isin(key, self._accepted_within(int(key[0]), int(key[-1])))
            key, first = key[new], first[new]
        self._held.append(_Held(readings, mine[first], None))
        self._delivered.append(key)
        return IngestCounts(first.shape[0], mine.shape[0] - first.shape[0], index.shape[0] - mine.shape[0])

    def _accepted_within(self, low: int, high: int) -> np.ndarray:
        """The packed keys from ``low`` to ``high`` that this collector accepted before."""
        found = [keys[np.searchsorted(keys, low):np.searchsorted(keys, high, "right")] for keys in self._delivered]
        found.append(np.array([key for key in self._seen if low <= key <= high], dtype=np.int64))
        return np.concatenate(found)

    def close_day(self, date: str) -> DayArrays:
        """Close every minute of the date for every assigned meter-phase: the
        collector's rows in file order (meter, then minute, then phase),
        averages as float64 and the cells of a row without samples empty.

        A minute's means add its samples in (meter, phase, ts) order, whatever
        order they arrived in. A meter whose samples of the date are all held
        by one checked delivery (``ingest_columns``) is summed from it as it
        is. The other held samples are sorted by key and summed together.
        Samples of other dates stay held.
        """
        day0 = parse_date(date)
        meters = sorted(self.config.assigned_meters)
        held, self._held = self._held, []
        if self._readings:
            held.append(_Held(_columns(self._readings), np.arange(len(self._readings)), None))
            self._readings = []
        size = MINUTES_PER_DAY * len(PHASES)  # one meter's rows
        counts = np.zeros(len(meters) * size, dtype=np.int64)
        sums = np.zeros((_AVERAGES, len(meters) * size))
        holders = Counter(chain.from_iterable(map(_meters, held)))
        rest = []
        for piece in held:
            if piece.meter is not None and holders[piece.meter] == 1:
                samples = _samples(piece)
                minute = (samples.ts - day0) // 60
                if minute.min() >= 0 and minute.max() < MINUTES_PER_DAY:
                    bins = minute * len(PHASES) + samples.phase - 1
                    rank = meters.index(piece.meter)
                    at = slice(rank * size, (rank + 1) * size)
                    counts[at] = np.bincount(bins, minlength=size)
                    # bincount adds each bin's weights in input order: (phase, ts) order.
                    for total, col in zip(sums, samples[3:]):
                        total[at] = np.bincount(bins, weights=col, minlength=size)
                    continue
            rest.append(piece)
        if rest:
            self._close_sorted(rest, day0, meters, counts, sums)
        with np.errstate(invalid="ignore"):  # empty minutes: nan, marked empty
            averages = sums / counts
        minutes = np.repeat(day0 + 60 * np.arange(MINUTES_PER_DAY), len(PHASES))
        return DayArrays(
            np.repeat(np.array(meters, dtype=np.int64), size),
            np.tile(np.array(PHASES, dtype=np.int64), len(meters) * MINUTES_PER_DAY),
            np.tile(minutes, len(meters)),
            averages,
            np.broadcast_to(counts == 0, averages.shape),
            counts,
        )

    def _close_sorted(self, held: List[_Held], day0: int, meters: List[int], counts, sums) -> None:
        """Add the date's samples of ``held``, each key once across them all,
        to ``counts`` and ``sums``, and hold the samples of other dates again."""
        samples = ReadingColumns(*map(np.concatenate, zip(*map(_samples, held))))
        rows = np.argsort(_pack(samples.meter_id, samples.phase, samples.ts))  # (meter, phase, ts) order
        ts = samples.ts[rows]
        in_day = (ts >= day0) & (ts < day0 + SECONDS_PER_DAY)
        if not in_day.all():
            later = rows[~in_day]
            self._held.append(_Held(ReadingColumns(*(col[later] for col in samples)), np.arange(later.shape[0]), None))
            rows, ts = rows[in_day], ts[in_day]
        rank = np.searchsorted(meters, samples.meter_id[rows])
        bins = (rank * MINUTES_PER_DAY + (ts - day0) // 60) * len(PHASES) + samples.phase[rows] - 1
        counts += np.bincount(bins, minlength=counts.shape[0])
        # bincount adds each bin's weights in input order: (meter, phase, ts) order.
        for total, col in zip(sums, samples[3:]):
            total += np.bincount(bins, weights=col[rows], minlength=counts.shape[0])

    def write_day_csv(self, date: str, day: DayArrays) -> List[Path]:
        """One CSV per assigned meter, each holding that meter's rows of ``day``
        in the order given, rendered by one format over the file; atomic
        publish; byte-stable on rewrite. ValueError, before any file is
        written, for a row of a meter not assigned."""
        meters = sorted(self.config.assigned_meters)
        stray = set(np.unique(day.meter_id).tolist()).difference(meters)
        if stray:
            raise ValueError(f"rows for unassigned meters {sorted(stray)}")
        minutes = np.unique(day.minute_start).tolist()
        stamps = dict(zip(minutes, map(format_ts, minutes)))
        codes = (1 << np.arange(_AVERAGES)) @ day.empty
        day_dir = Path(self.config.output_root) / self.config.collector_id / date
        paths = []
        for meter_id in meters:
            at = np.flatnonzero(day.meter_id == meter_id)
            cells = zip(
                map(stamps.__getitem__, day.minute_start[at].tolist()),
                day.meter_id[at].tolist(),
                day.phase[at].tolist(),
                *(day.averages[:, at] + 0.0).tolist(),  # +0.0 writes -0.0 as 0.000
                day.sample_count[at].tolist(),
            )
            text = "".join(map(_ROW_FORMATS.__getitem__, codes[at].tolist())) % tuple(chain.from_iterable(cells))
            path = day_dir / f"SEM{meter_id}.csv"
            try:
                day_dir.mkdir(parents=True, exist_ok=True)
                write_atomic(path, (CSV_HEADER + "\n" + text).encode("utf-8"))
            except OSError as exc:
                raise IoFailure(path, exc) from exc
            paths.append(path)
        return paths


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
