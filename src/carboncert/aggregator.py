"""Data aggregation layer: fuse 24 phases per minute, flag anomalies, cut batches.

The aggregator reads the collectors' published CSV files (never in-memory
state), so the on-chain record is derived from exactly the bytes a third
party can replay later.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import collector as collector_mod
from .model import (
    SCHEMA_VERSION,
    TOTAL_PHASES,
    WINDOW_SECONDS,
    WINDOWS_PER_DAY,
    AnomalyRules,
    Identity,
    MinuteRecord,
    Quality,
    Role,
    batch_bytes,
    batch_id_for,
    canonical_json,
    format_ts,
    parse_date,
    write_atomic,
)

RANGE_POWER = "RANGE_POWER"
RANGE_VOLTAGE = "RANGE_VOLTAGE"
RANGE_FREQUENCY = "RANGE_FREQUENCY"
RAMP = "RAMP"
PF_BOUNDS = "PF_BOUNDS"


_OK, _PARTIAL, _FLAGGED = Quality.OK.value, Quality.PARTIAL.value, Quality.FLAGGED.value


class DuplicatePhase(ValueError):
    """Two minute records share the same (meter, phase)."""


class Unauthorized(PermissionError):
    pass


class Rejected(ValueError):
    """The ledger marked a submitted batch INVALID; ``reason`` is the chaincode's."""

    def __init__(self, batch_id: str, reason: str):
        super().__init__(f"batch {batch_id} rejected: {reason}")
        self.batch_id = batch_id
        self.reason = reason


@dataclass
class Anomaly:
    code: str
    detail: str


def mark_processed(files: Iterable[Path]) -> None:
    """Writes nothing. The chain and ``pipeline.DateCommitted`` are the record of
    which days are committed; this no-op remains only because the chain-30d
    set-up of ``perfbench/workloads.py`` still calls it, and the next change to
    the benchmark drops that call and this function."""


def fuse_day(files: Iterable[collector_mod.DayColumns], rules: AnomalyRules) -> Tuple[List[dict], List[dict]]:
    """Fuse the rows of a date's CSV files, given in path order, into one plant
    aggregate per minute, in minute order, and flag anomalies; also returns
    the quarantine entry of each flagged minute. An aggregate is the dict a
    batch carries: ``minute_start`` as ``format_ts`` text, ``quality`` a
    ``Quality`` value and ``flags`` a sorted list of anomaly codes.

    A minute's power, voltage and frequency are added one value at a time in
    (meter, phase) order, starting from 0.0, as ``sum`` adds floats before
    Python 3.12: ``np.bincount`` adds a bin's weights in input order, where
    a pairwise ``np.sum`` would round differently. The range, power-factor
    and ramp rules run on arrays to find the minutes to look at;
    ``detect_anomalies`` then decides each of them over its records in file
    order, which gives its details and the entry's records that order.
    Raises DuplicatePhase when two rows share a (minute, meter, phase)."""
    cols = [list(chain.from_iterable(parts)) for parts in zip(*files)]
    if not cols or not cols[0]:
        return [], []
    meter_id, phase, minute_start, power, voltage, _, power_factor, frequency, _, samples = cols
    meters, phases = _ranks(meter_id), _ranks(phase)
    minute = np.array(minute_start, dtype=np.int64)
    order = np.lexsort((phases, meters, minute))
    minute, meters, phases = minute[order], meters[order], phases[order]
    first = np.ones(len(order), dtype=bool)  # the first row of each minute
    np.not_equal(minute[1:], minute[:-1], out=first[1:])
    repeated = ~first[1:] & (meters[1:] == meters[:-1]) & (phases[1:] == phases[:-1])
    if repeated.any():
        row = int(order[1 + int(np.argmax(repeated))])
        raise DuplicatePhase(f"duplicate phase record {(meter_id[row], phase[row])}")
    bins = np.cumsum(first) - 1
    present = np.fromiter(map((0).__lt__, samples), bool, len(samples))[order]
    at = bins[present]  # the minute of each row with samples
    p, v, f, pf = (np.array(col, dtype=np.float64)[order][present] for col in (power, voltage, frequency, power_factor))
    starts = np.flatnonzero(first)
    n_minutes = len(starts)
    # float64 even with no present row, where np.bincount gives int64
    total, v_sum, f_sum = (np.bincount(at, weights=w, minlength=n_minutes).astype(np.float64) for w in (p, v, f))
    count = np.bincount(at, minlength=n_minutes)

    (p_lo, p_hi), (v_lo, v_hi), (f_lo, f_hi) = rules.phase_power_range, rules.voltage_range, rules.frequency_range
    with np.errstate(invalid="ignore", divide="ignore"):  # nan and inf readings, empty minutes
        out_of_bounds = (
            ~((p_lo <= p) & (p <= p_hi)) | ~((v_lo <= v) & (v <= v_hi))
            | ~((f_lo <= f) & (f <= f_hi)) | (np.abs(pf) > 1.0)
        )
        suspect = np.zeros(n_minutes, dtype=bool)
        suspect[at[out_of_bounds]] = True
        suspect[1:] |= np.abs(np.diff(total)) > rules.max_ramp_watts_per_minute
        avg_v, avg_f = v_sum / count, f_sum / count

    ends = np.append(starts[1:], len(order)).tolist()
    aggregates: List[dict] = []
    entries: List[dict] = []
    prev: Optional[dict] = None
    for start, end, minute_at, total_w, volts, hertz, n, look in zip(
        starts.tolist(), ends, minute[starts].tolist(), total.tolist(),
        avg_v.tolist(), avg_f.tolist(), count.tolist(), suspect.tolist(),
    ):
        agg = {
            "minute_start": format_ts(minute_at),
            "total_power": total_w,
            "avg_voltage": volts if n else None,
            "avg_frequency": hertz if n else None,
            "phase_count": n,
            "quality": _PARTIAL if 0 < n < TOTAL_PHASES else _OK,
            "flags": [],
        }
        if look:
            records = [MinuteRecord._make([col[row] for col in cols]) for row in sorted(order[start:end].tolist())]
            anomalies = detect_anomalies(agg, prev, records, rules)
            if anomalies:
                flag_aggregate(agg, anomalies)
                entries.append(_quarantine_entry(agg, anomalies, records))
        aggregates.append(agg)
        prev = agg
    return aggregates, entries


def _ranks(values: List[int]) -> np.ndarray:
    """Each value's rank among the distinct values: int64 keys that sort as
    the values do, whatever their size."""
    rank = {value: k for k, value in enumerate(sorted(set(values)))}
    return np.fromiter(map(rank.__getitem__, values), np.int64, len(values))


def _quarantine_entry(agg: dict, anomalies: List[Anomaly], records: List[MinuteRecord]) -> dict:
    return {
        "minute_start": agg["minute_start"],
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
    }


def detect_anomalies(
    agg: dict, prev_agg: Optional[dict], records: Iterable[MinuteRecord], rules: AnomalyRules
) -> List[Anomaly]:
    """Rule evaluation over contributing per-phase records and minute totals."""
    anomalies: List[Anomaly] = []
    p_lo, p_hi = rules.phase_power_range
    v_lo, v_hi = rules.voltage_range
    f_lo, f_hi = rules.frequency_range
    for r in records:
        if r.sample_count == 0:
            continue
        where = f"meter {r.meter_id} phase {r.phase}"
        if not p_lo <= r.avg_active_power <= p_hi:
            anomalies.append(Anomaly(RANGE_POWER, f"{where}: {r.avg_active_power:.3f} W"))
        if not v_lo <= r.avg_voltage <= v_hi:
            anomalies.append(Anomaly(RANGE_VOLTAGE, f"{where}: {r.avg_voltage:.3f} V"))
        if not f_lo <= r.avg_frequency <= f_hi:
            anomalies.append(Anomaly(RANGE_FREQUENCY, f"{where}: {r.avg_frequency:.3f} Hz"))
        if abs(r.avg_power_factor) > 1.0:
            anomalies.append(Anomaly(PF_BOUNDS, f"{where}: pf {r.avg_power_factor:.3f}"))
    if prev_agg is not None:
        ramp = abs(agg["total_power"] - prev_agg["total_power"])
        if ramp > rules.max_ramp_watts_per_minute:
            anomalies.append(Anomaly(RAMP, f"total power jumped {ramp:.3f} W in one minute"))
    return anomalies


def flag_aggregate(agg: dict, anomalies: List[Anomaly]) -> None:
    if not anomalies:
        return
    agg["flags"] = sorted({a.code for a in anomalies})
    agg["quality"] = _FLAGGED


def make_batches(day_aggregates: Iterable[dict], producer_id: str) -> Tuple[List[dict], List[int]]:
    """Group minute aggregates into five-minute batches, laid out as
    ``batch_bytes`` renders them, with each batch's aggregates in minute
    order; fully missing windows are skipped and reported as indices. A
    minute's window is read off its fixed-width ``minute_start`` text, and
    windows are placed on the date of the earliest minute."""
    aggregates = sorted(day_aggregates, key=itemgetter("minute_start"))
    if not aggregates:
        return [], list(range(WINDOWS_PER_DAY))
    by_window: Dict[str, List[dict]] = {}  # "HH:MM" of a window's first minute -> the window's aggregates
    for agg in aggregates:
        text = agg["minute_start"]  # YYYY-MM-DDTHH:MM:SSZ
        by_window.setdefault(text[11:15] + ("0" if text[15] < "5" else "5"), []).append(agg)
    windows = {(60 * int(hh_mm[:2]) + int(hh_mm[3:])) // 5: aggs for hh_mm, aggs in by_window.items()}
    day0 = parse_date(aggregates[0]["minute_start"][:10])
    batches: List[dict] = []
    for w in sorted(windows):
        start = day0 + w * WINDOW_SECONDS
        batches.append(
            {
                "batch_id": batch_id_for(producer_id, start),
                "window_start": format_ts(start),
                "window_end": format_ts(start + WINDOW_SECONDS),
                "producer_id": producer_id,
                "schema_version": SCHEMA_VERSION,
                "aggregates": windows[w],
            }
        )
    missing = [w for w in range(WINDOWS_PER_DAY) if w not in windows]
    return batches, missing


def submit(batch: dict, producer: Identity, client) -> str:
    """Serialize canonically and submit as a ledger transaction; returns its tx id."""
    if producer.role != Role.PRODUCER:
        raise Unauthorized(f"role {producer.role.value} may not submit batches")
    payload = b'{"batch":' + batch_bytes(batch) + b',"op":"submit_batch"}'  # canonical_json's layout
    tx_id = client.submit_tx(payload, producer.name)
    tx = client.get_transaction(tx_id)
    if tx.status != "VALID":
        raise Rejected(batch["batch_id"], tx.reason or "rejected")
    return tx_id


@dataclass
class AggregationSummary:
    date: str
    aggregate_count: int
    batch_count: int
    flagged_minutes: int
    missing_windows: List[int]
    notices: List[str]


def run_day_aggregation(
    date: str,
    collector_roots: Iterable[Path],
    rules: AnomalyRules,
    producer: Identity,
    client,
    out_dir: Path,
) -> AggregationSummary:
    """One aggregation pass over the date's ``<root>/<date>/SEM*.csv`` files, in
    path order: fuse, flag, quarantine, batch, submit. A batch the chain already
    holds raises ``Rejected`` with reason ``duplicate``."""
    notices: List[str] = []
    stamps: Dict[str, int] = {}  # the day's files share their timestamp spellings
    files = []
    for root in sorted(Path(r) for r in collector_roots):
        if not root.is_dir():
            notices.append(f"MissingCollector: {root}")
            continue
        for f in sorted((root / date).glob("SEM*.csv")):
            if not f.is_file():
                notices.append(f"IoFailure: {f}")
                continue
            files.append(collector_mod.read_day_columns(f, stamps))
    aggregates, quarantine_entries = fuse_day(files, rules)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sidecar = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in quarantine_entries)
    write_atomic(out_dir / f"anomalies-{date}.jsonl", sidecar.encode("utf-8"))

    batches, missing = make_batches(aggregates, producer.name)
    for batch in batches:
        submit(batch, producer, client)

    if quarantine_entries:
        payload = canonical_json(
            {
                "date": date,
                "entries": [
                    {
                        "minute_start": e["minute_start"],
                        "aggregate": e["aggregate"],
                        "codes": e["codes"],
                    }
                    for e in quarantine_entries
                ],
                "op": "quarantine",
            }
        )
        client.submit_tx(payload, producer.name)
    if missing:
        payload = canonical_json(
            {"date": date, "op": "report_missing", "producer": producer.name, "windows": missing}
        )
        client.submit_tx(payload, producer.name)

    return AggregationSummary(
        date=date,
        aggregate_count=len(aggregates),
        batch_count=len(batches),
        flagged_minutes=len(quarantine_entries),
        missing_windows=missing,
        notices=notices,
    )
