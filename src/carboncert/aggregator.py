"""Data aggregation layer: fuse 24 phases per minute, flag anomalies, cut batches.

The aggregator reads the collectors' published CSV files (never in-memory
state), so the on-chain record is derived from exactly the bytes a third
party can replay later.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from . import collector as collector_mod
from .model import (
    SCHEMA_VERSION,
    TOTAL_PHASES,
    WINDOW_SECONDS,
    WINDOWS_PER_DAY,
    Batch,
    Identity,
    MinuteRecord,
    PlantMinuteAggregate,
    Quality,
    Role,
    aggregate_to_dict,
    batch_bytes,
    batch_id_for,
    batch_to_dict,
    canonical_json,
    finite_number,
    format_ts,
    write_atomic,
)

RANGE_POWER = "RANGE_POWER"
RANGE_VOLTAGE = "RANGE_VOLTAGE"
RANGE_FREQUENCY = "RANGE_FREQUENCY"
RAMP = "RAMP"
PF_BOUNDS = "PF_BOUNDS"


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


@dataclass
class AnomalyRules:
    phase_power_range: Tuple[float, float] = (-200.0, 6000.0)
    voltage_range: Tuple[float, float] = (207.0, 253.0)
    frequency_range: Tuple[float, float] = (49.5, 50.5)
    max_ramp_watts_per_minute: float = 60_000.0

    def __post_init__(self):
        for what, (lo, hi) in (
            ("phase power range", self.phase_power_range),
            ("voltage range", self.voltage_range),
            ("frequency range", self.frequency_range),
        ):
            if finite_number(lo, what) >= finite_number(hi, what):
                raise ValueError("range lower bound must be below upper bound")
        if finite_number(self.max_ramp_watts_per_minute, "ramp limit") <= 0:
            raise ValueError("ramp limit must be positive")

    @classmethod
    def from_dict(cls, raw: dict) -> "AnomalyRules":
        """The rules a JSON object gives, ranges as lists; TypeError for an unknown key."""
        return cls(**{key: tuple(value) if key.endswith("_range") else value for key, value in raw.items()})


def mark_processed(files: Iterable[Path]) -> None:
    """Writes nothing. The chain and ``pipeline.DateCommitted`` are the record of
    which days are committed; this no-op remains only because the chain-30d
    set-up of ``perfbench/workloads.py`` still calls it, and the next change to
    the benchmark drops that call and this function."""


def aggregate_minute(records: Iterable[MinuteRecord]) -> PlantMinuteAggregate:
    """Fuse up to 24 phase records sharing one minute into a plant aggregate."""
    records = sorted(records, key=lambda r: (r.meter_id, r.phase))
    minutes = {r.minute_start for r in records}
    if len(minutes) != 1:
        raise ValueError("records must share one minute_start")
    seen = set()
    for r in records:
        key = (r.meter_id, r.phase)
        if key in seen:
            raise DuplicatePhase(f"duplicate phase record {key}")
        seen.add(key)
    present = [r for r in records if r.sample_count > 0]
    n = len(present)
    total = sum(r.avg_active_power for r in present)
    avg_v = sum(r.avg_voltage for r in present) / n if n else None
    avg_f = sum(r.avg_frequency for r in present) / n if n else None
    quality = Quality.PARTIAL if 0 < n < TOTAL_PHASES else Quality.OK
    return PlantMinuteAggregate(
        minute_start=minutes.pop(),
        total_power=total,
        avg_voltage=avg_v,
        avg_frequency=avg_f,
        phase_count=n,
        quality=quality,
        flags=[],
    )


def detect_anomalies(
    agg: PlantMinuteAggregate,
    prev_agg: Optional[PlantMinuteAggregate],
    records: Iterable[MinuteRecord],
    rules: AnomalyRules,
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
        ramp = abs(agg.total_power - prev_agg.total_power)
        if ramp > rules.max_ramp_watts_per_minute:
            anomalies.append(Anomaly(RAMP, f"total power jumped {ramp:.3f} W in one minute"))
    return anomalies


def flag_aggregate(agg: PlantMinuteAggregate, anomalies: List[Anomaly]) -> None:
    if not anomalies:
        return
    agg.flags = sorted({a.code for a in anomalies})
    agg.quality = Quality.FLAGGED


def make_batches(
    day_aggregates: Iterable[PlantMinuteAggregate],
    producer_id: str,
    schema_version: int = SCHEMA_VERSION,
) -> Tuple[List[Batch], List[int]]:
    """Group minute aggregates into five-minute batches; fully missing windows
    are skipped and reported as indices."""
    by_window: Dict[int, List[PlantMinuteAggregate]] = {}
    for agg in day_aggregates:
        w = (agg.minute_start % 86400) // WINDOW_SECONDS
        by_window.setdefault(w, []).append(agg)
    batches: List[Batch] = []
    if not by_window:
        return [], list(range(WINDOWS_PER_DAY))
    day0 = min(a.minute_start for aggs in by_window.values() for a in aggs)
    day0 -= day0 % 86400
    for w in sorted(by_window):
        aggs = sorted(by_window[w], key=lambda a: a.minute_start)
        start = day0 + w * WINDOW_SECONDS
        batches.append(
            Batch(
                batch_id=batch_id_for(producer_id, start),
                window_start=start,
                window_end=start + WINDOW_SECONDS,
                producer_id=producer_id,
                schema_version=schema_version,
                aggregates=aggs,
            )
        )
    missing = [w for w in range(WINDOWS_PER_DAY) if w not in by_window]
    return batches, missing


def submit(batch: Batch, producer: Identity, client) -> str:
    """Serialize canonically and submit as a ledger transaction; returns its tx id."""
    if producer.role != Role.PRODUCER:
        raise Unauthorized(f"role {producer.role.value} may not submit batches")
    payload = b'{"batch":' + batch_bytes(batch_to_dict(batch)) + b',"op":"submit_batch"}'  # canonical_json's layout
    tx_id = client.submit_tx(payload, producer.name)
    tx = client.get_transaction(tx_id)
    if tx.status != "VALID":
        raise Rejected(batch.batch_id, tx.reason or "rejected")
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
    per_minute: Dict[int, List[MinuteRecord]] = {}
    for root in sorted(Path(r) for r in collector_roots):
        if not root.is_dir():
            notices.append(f"MissingCollector: {root}")
            continue
        for f in sorted((root / date).glob("SEM*.csv")):
            if not f.is_file():
                notices.append(f"IoFailure: {f}")
                continue
            for rec in collector_mod.read_day_csv(f):
                per_minute.setdefault(rec.minute_start, []).append(rec)

    aggregates: List[PlantMinuteAggregate] = []
    quarantine_entries = []
    prev: Optional[PlantMinuteAggregate] = None
    for minute in sorted(per_minute):
        records = per_minute[minute]
        agg = aggregate_minute(records)
        anomalies = detect_anomalies(agg, prev, records, rules)
        flag_aggregate(agg, anomalies)
        if anomalies:
            quarantine_entries.append(
                {
                    "minute_start": format_ts(minute),
                    "aggregate": aggregate_to_dict(agg),
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
            )
        aggregates.append(agg)
        prev = agg

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
