"""Third-party verification: independent replay of raw CSVs against the chain.

This module deliberately re-implements CSV parsing, minute fusion, anomaly
rules, canonical serialization, and the energy arithmetic instead of calling
the pipeline modules: an audit must not assume the system under audit is
honest. Only the shared type definitions and the atomic file publish are
reused.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, repeat
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .ledger import ChainDamaged
from .model import AnomalyRules, EmissionConfig, write_atomic

WINDOWS_PER_DAY = 288
TOTAL_PHASES = 24
REL_TOL = 1e-9

CSV_COLUMNS = [
    "timestamp_utc",
    "meter_id",
    "phase",
    "active_power_w",
    "voltage_v",
    "current_a",
    "power_factor",
    "frequency_hz",
    "apparent_power_va",
    "sample_count",
]


class MissingData(RuntimeError):
    def __init__(self, date: str):
        super().__init__(f"no collector CSV data for {date}")
        self.date = date


class UnreadableCsv(ValueError):
    """A collector CSV that cannot be read, named by file, or does not parse, named by file and line."""

    def __init__(self, path: Path, line: Optional[int], cause):
        super().__init__(f"{path}: {cause}" if line is None else f"{path} line {line}: {cause}")


@dataclass
class Mismatch:
    stage: str
    key: str
    expected: Optional[str]
    found: Optional[str]


@dataclass
class AuditReport:
    date: str
    chain_ok: bool
    first_bad_height: Optional[int]
    replay_matches: bool
    mismatches: List[Mismatch] = field(default_factory=list)
    quarantine_summary: Dict = field(default_factory=dict)
    credit_summary: Dict = field(default_factory=dict)
    notices: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.chain_ok and self.replay_matches


# -- independent canonical serialization ------------------------------------


def _canon(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.3f" % (value + 0.0)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(k) + ":" + _canon(value[k]) for k in sorted(value)) + "}"
    raise TypeError(type(value))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _ts(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


_CSV_TS = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII).fullmatch


def _epoch(text: str) -> int:
    """Epoch of the fixed-width form the collectors write; any other spelling
    is refused, so the audit is no more lenient than the pipeline it checks."""
    if not _CSV_TS(text):
        raise ValueError(f"not a YYYY-MM-DDTHH:MM:SSZ timestamp: {text!r}")
    # datetime() range-checks each field, so it rejects what strptime rejects
    dt = datetime(int(text[:4]), int(text[5:7]), int(text[8:10]),
                  int(text[11:13]), int(text[14:16]), int(text[17:19]), tzinfo=timezone.utc)
    return int(dt.timestamp())


# -- independent replay ------------------------------------------------------


@dataclass
class DayReplay:
    """Everything the auditor recomputes from raw CSVs for one day."""

    date: str
    batches: Dict[int, dict]  # window index -> canonical batch dict
    batch_bytes: Dict[int, bytes]
    flagged_minutes: List[str]
    missing_windows: List[int]
    energy_kwh: float


class _Rows(NamedTuple):
    """A collector CSV's rows as the columns the replay reads, in file order;
    an empty reading is None. Current and apparent power are not read."""

    minute: List[int]
    meter_id: List[int]
    phase: List[int]
    power: List[Optional[float]]
    voltage: List[Optional[float]]
    pf: List[Optional[float]]
    frequency: List[Optional[float]]
    samples: List[int]


def _parse_csv(path: Path, epochs: Dict[str, int]) -> _Rows:
    """Parse one collector CSV column by column; ``epochs`` holds the epoch of
    each timestamp text seen in the day's files. A file the parse refuses is
    read again row by row, so that the error names its first bad line."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise UnreadableCsv(path, None, exc.strerror or exc) from exc
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise UnreadableCsv(path, raw.count(b"\n", 0, exc.start) + 1, exc) from exc
    if not lines or lines[0].split(",") != CSV_COLUMNS:
        raise UnreadableCsv(path, 1, "unexpected CSV header")
    width = len(CSV_COLUMNS)
    if len(lines) == 1:
        return _Rows([], [], [], [], [], [], [], [])
    try:
        if set(map(str.count, lines[1:], repeat(","))) != {width - 1}:
            raise ValueError("a line of another width")
        cells = ",".join(lines[1:]).split(",")
        stamps = cells[0::width]
        for text in set(stamps) - epochs.keys():
            epochs[text] = _epoch(text)
        rows = _Rows(
            minute=[epochs[text] for text in stamps],
            meter_id=_whole(cells[1::width]),
            phase=_whole(cells[2::width]),
            power=_reals(cells[3::width]),
            voltage=_reals(cells[4::width]),
            pf=_reals(cells[6::width]),
            frequency=_reals(cells[7::width]),
            samples=_whole(cells[9::width]),
        )
        for readings in (rows.power, rows.voltage, rows.pf, rows.frequency):
            if None in readings and any(value is None and n > 0 for value, n in zip(readings, rows.samples)):
                raise ValueError("a row with samples has an empty reading")
        return rows
    except ValueError:
        _first_bad_row(path, lines)
        raise


def _whole(cells: List[str]) -> List[int]:
    parsed = {c: int(c) for c in set(cells)}  # meter, phase and sample count: few distinct texts
    return [parsed[c] for c in cells]


def _reals(cells: List[str]) -> List[Optional[float]]:
    if "" in cells:
        return [float(c) if c else None for c in cells]
    return list(map(float, cells))


def _first_bad_row(path: Path, lines: List[str]) -> None:
    """Raise UnreadableCsv for the first data line that does not parse."""
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"{len(cells)} cells, expected {len(CSV_COLUMNS)}")
            _epoch(cells[0]), int(cells[1]), int(cells[2])
            readings = [float(cells[i]) if cells[i] else None for i in (3, 4, 6, 7)]
            if int(cells[9]) > 0 and None in readings:
                raise ValueError("a row with samples has an empty reading")
        except ValueError as exc:
            raise UnreadableCsv(path, number, exc) from exc


_CODES = ("PF_BOUNDS", "RAMP", "RANGE_FREQUENCY", "RANGE_POWER", "RANGE_VOLTAGE")  # sorted


def _sort_keys(values: List[int]) -> np.ndarray:
    """int64 keys that order as the Python ints ``values`` do, of any size."""
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return np.array([rank[v] for v in values], dtype=np.int64)


def replay_day(csv_roots, date: str, rules: AnomalyRules, producer: str) -> DayReplay:
    """Recompute aggregates, flags, batches, and energy from raw CSVs.

    Each minute adds its present rows in (meter, phase) order, one value at
    a time from 0.0 (``np.bincount`` adds a bin's weights in input order)."""
    files = []
    for root in sorted(Path(r) for r in csv_roots):
        day_dir = root / date
        if day_dir.is_dir():
            files.extend(sorted(day_dir.glob("SEM*.csv")))
    if not files:
        raise MissingData(date)

    epochs: Dict[str, int] = {}
    parsed = [_parse_csv(f, epochs) for f in files]
    day = _Rows(*(list(chain.from_iterable(column)) for column in zip(*parsed)))
    minute = np.array(day.minute, dtype=np.int64)
    order = np.lexsort((_sort_keys(day.phase), _sort_keys(day.meter_id), minute))
    minute = minute[order]
    new_minute = np.ones(len(minute), dtype=bool)
    new_minute[1:] = minute[1:] != minute[:-1]
    minutes = minute[new_minute]
    slot = np.cumsum(new_minute) - 1
    present = np.array([s > 0 for s in day.samples], dtype=bool)[order]
    slot = slot[present]

    def column(values):
        return np.array(values, dtype=np.float64)[order][present]

    power, voltage, pf, frequency = column(day.power), column(day.voltage), column(day.pf), column(day.frequency)
    m = len(minutes)
    n = np.bincount(slot, minlength=m)
    # float64 even with no present row, where np.bincount gives int64
    total, v_sum, f_sum = (
        np.bincount(slot, weights=w, minlength=m).astype(np.float64) for w in (power, voltage, frequency)
    )

    p_lo, p_hi = rules.phase_power_range
    v_lo, v_hi = rules.voltage_range
    f_lo, f_hi = rules.frequency_range
    hits = np.zeros((m, len(_CODES)), dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for code, bad in (
            ("PF_BOUNDS", np.abs(pf) > 1.0),
            ("RANGE_FREQUENCY", ~((f_lo <= frequency) & (frequency <= f_hi))),
            ("RANGE_POWER", ~((p_lo <= power) & (power <= p_hi))),
            ("RANGE_VOLTAGE", ~((v_lo <= voltage) & (voltage <= v_hi))),
        ):
            hits[slot[bad], _CODES.index(code)] = True
        hits[1:, _CODES.index("RAMP")] = np.abs(total[1:] - total[:-1]) > rules.max_ramp_watts_per_minute
        avg_v, avg_f = v_sum / n, f_sum / n
    flagged_at = hits.any(axis=1)

    day0 = _epoch(f"{date}T00:00:00Z")
    compact = date.replace("-", "")
    batches: Dict[int, dict] = {}
    batch_bytes: Dict[int, bytes] = {}
    flagged: List[str] = []
    per_window: Dict[int, List[dict]] = {}
    energy = 0.0

    for k, (epoch, total_w, count, volts, hertz, any_code) in enumerate(
        zip(minutes.tolist(), total.tolist(), n.tolist(), avg_v.tolist(), avg_f.tolist(), flagged_at.tolist())
    ):
        codes = [code for code, hit in zip(_CODES, hits[k].tolist()) if hit] if any_code else []
        agg = {
            "minute_start": _ts(epoch),
            "total_power": total_w,
            "avg_voltage": volts if count else None,
            "avg_frequency": hertz if count else None,
            "phase_count": count,
            "quality": "FLAGGED" if codes else ("PARTIAL" if 0 < count < TOTAL_PHASES else "OK"),
            "flags": codes,
        }
        if codes:
            flagged.append(agg["minute_start"])
        else:
            # energy uses the canonically rendered (3-decimal) power, matching
            # what the chaincode reads back from the stored batch
            energy += float("%.3f" % total_w) * 1 / 60000.0
        per_window.setdefault((epoch % 86400) // 300, []).append(agg)

    for w, aggs in sorted(per_window.items()):
        start = day0 + w * 300
        batch = {
            "batch_id": f"{producer}-{compact}-{w:03d}",
            "window_start": _ts(start),
            "window_end": _ts(start + 300),
            "producer_id": producer,
            "schema_version": 1,
            "aggregates": sorted(aggs, key=lambda a: a["minute_start"]),
        }
        batches[w] = batch
        batch_bytes[w] = _canon(batch).encode("utf-8")

    missing = [w for w in range(WINDOWS_PER_DAY) if w not in per_window]
    return DayReplay(
        date=date,
        batches=batches,
        batch_bytes=batch_bytes,
        flagged_minutes=flagged,
        missing_windows=missing,
        energy_kwh=energy,
    )


# -- comparison against the chain --------------------------------------------


def compare_with_chain(replay: DayReplay, chain, producer: str, emission: EmissionConfig) -> AuditReport:
    """Compare an independent replay against chain contents for one day; the
    credit's carbon is recomputed at ``emission``'s factor, not its own."""
    first_bad = chain.verify_chain()
    report = AuditReport(
        date=replay.date,
        chain_ok=first_bad is None,
        first_bad_height=first_bad,
        replay_matches=True,
    )

    compact = replay.date.replace("-", "")
    prefix = f"batch/{producer}/{producer}-{compact}-"
    on_chain = chain.state_items(prefix)
    chain_windows = {int(k.rsplit("-", 1)[1]): v for k, v in on_chain.items()}

    for w, expected_bytes in sorted(replay.batch_bytes.items()):
        expected_digest = _sha(expected_bytes)
        found = chain_windows.pop(w, None)
        found_digest = _sha(found) if found is not None else None
        if found_digest == expected_digest:
            continue
        stage, key = _localize(replay.batches[w], found, w, producer, compact)
        report.mismatches.append(
            Mismatch(stage=stage, key=key, expected=expected_digest, found=found_digest)
        )
    for w, found in sorted(chain_windows.items()):
        report.mismatches.append(
            Mismatch(
                stage="batch",
                key=f"{producer}-{compact}-{w:03d}",
                expected=None,
                found=_sha(found),
            )
        )

    # quarantine records: one per flagged minute, holding its codes and aggregate
    expected_q = {
        (_epoch(agg["minute_start"]) % 86400) // 60: agg
        for batch in replay.batches.values()
        for agg in batch["aggregates"]
        if agg["flags"]
    }
    chain_q = {
        int(k.rsplit("/", 1)[1]): json.loads(v.decode("utf-8"))
        for k, v in chain.state_items(f"quarantine/{producer}/{replay.date}/").items()
    }
    for minute_index in sorted(expected_q.keys() | chain_q.keys()):
        key = f"quarantine/{producer}/{replay.date}/{minute_index:04d}"
        agg, record = expected_q.get(minute_index), chain_q.get(minute_index)
        if agg is None or record is None:
            report.mismatches.append(
                Mismatch(
                    stage="quarantine",
                    key=key,
                    expected=None if agg is None else "present",
                    found=None if record is None else "present",
                )
            )
            continue
        codes, found_codes = _canon(agg["flags"]), _canon(record.get("codes"))
        if found_codes != codes:
            report.mismatches.append(Mismatch("quarantine", f"{key}:codes", codes, found_codes))
        aggregate, found_aggregate = _canon(agg), _canon(record.get("aggregate"))
        if found_aggregate != aggregate:
            report.mismatches.append(
                Mismatch("quarantine", f"{key}:aggregate", _sha(aggregate.encode()), _sha(found_aggregate.encode()))
            )
    report.quarantine_summary = {
        "replayed_flagged_minutes": len(expected_q),
        "on_chain_entries": len(chain_q),
    }

    # missing-window report
    missing_raw = chain.query_state(f"missing/{producer}/{replay.date}")
    chain_missing = json.loads(missing_raw.decode())["windows"] if missing_raw else []
    if sorted(chain_missing) != sorted(replay.missing_windows):
        report.mismatches.append(
            Mismatch(
                stage="missing",
                key=f"missing/{producer}/{replay.date}",
                expected=",".join(map(str, sorted(replay.missing_windows))),
                found=",".join(map(str, sorted(chain_missing))),
            )
        )

    # credit totals
    accrual_raw = chain.query_state(f"accrual/{producer}/{replay.date}")
    if accrual_raw is not None:
        serial = json.loads(accrual_raw.decode())["serial"]
        credit_raw = chain.query_state(f"credit/{serial}")
        if credit_raw is None:
            report.mismatches.append(
                Mismatch(stage="credit", key=serial, expected="record", found=None)
            )
        else:
            credit = json.loads(credit_raw.decode("utf-8"))
            factor = emission.factor_kg_per_kwh
            for name, expected, found in (
                ("energy_kwh", replay.energy_kwh, credit["energy_kwh"]),
                ("co2_kg", replay.energy_kwh * factor, credit["co2_kg"]),
                ("factor_used", factor, credit["factor_used"]),
            ):
                if abs(found - expected) > REL_TOL * max(1.0, abs(expected)):
                    report.mismatches.append(
                        Mismatch(
                            stage="credit",
                            key=f"{serial}:{name}",
                            expected=repr(expected),
                            found=repr(found),
                        )
                    )
            excluded, found_excluded = _canon(replay.flagged_minutes), _canon(credit["excluded_minutes"])
            if found_excluded != excluded:
                report.mismatches.append(
                    Mismatch("credit", f"{serial}:excluded_minutes",
                             _sha(excluded.encode()), _sha(found_excluded.encode()))
                )
            report.credit_summary = {
                "serial": serial,
                "state": credit["state"],
                "energy_kwh": credit["energy_kwh"],
                "co2_kg": credit["co2_kg"],
                "factor_used": credit["factor_used"],
            }

    report.replay_matches = not report.mismatches
    return report


def _localize(expected_batch, found_bytes, w, producer, compact):
    """Attribute a digest mismatch to an aggregate when possible."""
    batch_key = f"{producer}-{compact}-{w:03d}"
    if found_bytes is None:
        return "batch", batch_key
    try:
        found_batch = json.loads(found_bytes.decode("utf-8"))
        found_aggs = {a["minute_start"]: a for a in found_batch["aggregates"]}
    except (ValueError, KeyError, TypeError):
        return "batch", batch_key
    for agg in expected_batch["aggregates"]:
        other = found_aggs.get(agg["minute_start"])
        if other is None or _canon(agg) != _canon(other):
            return "aggregate", f"{batch_key}@{agg['minute_start']}"
    return "batch", batch_key


def replay_verify(
    csv_roots,
    chain,
    date: str,
    producer: str,
    rules: Optional[AnomalyRules] = None,
    replay: Optional[DayReplay] = None,
    emission: Optional[EmissionConfig] = None,
) -> AuditReport:
    """Full third-party verification for one day, under the chain's ``rules``
    and ``emission`` (the defaults when not given).

    A precomputed replay may be passed when the CSV inputs are known
    unchanged (e.g. repeated chain checks over the same day). Missing or
    unparseable CSVs, and a chain value whose payload cannot be decoded,
    give a failed report whose notice says why.
    """
    rules = rules or AnomalyRules()
    try:
        if replay is None:
            replay = replay_day(csv_roots, date, rules, producer)
        return compare_with_chain(replay, chain, producer, emission or EmissionConfig())
    except (MissingData, UnreadableCsv, ChainDamaged) as exc:
        first_bad = chain.verify_chain()
        return AuditReport(
            date=date,
            chain_ok=first_bad is None,
            first_bad_height=first_bad,
            replay_matches=False,
            notices=[f"{type(exc).__name__}: {exc}"],
        )


# -- report emission ----------------------------------------------------------


def report_to_dict(report: AuditReport) -> dict:
    return {
        "date": report.date,
        "result": "PASS" if report.passed else "FAIL",
        "chain_ok": report.chain_ok,
        "first_bad_height": report.first_bad_height,
        "replay_matches": report.replay_matches,
        "mismatches": [
            {"stage": m.stage, "key": m.key, "expected": m.expected, "found": m.found}
            for m in report.mismatches
        ],
        "quarantine_summary": report.quarantine_summary,
        "credit_summary": report.credit_summary,
        "notices": report.notices,
    }


def emit_report(report: AuditReport, out_dir) -> Tuple[Path, Path]:
    """Write audit-<date>.json and audit-<date>.txt; byte-stable on re-emission."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"audit-{report.date}.json"
    txt_path = out_dir / f"audit-{report.date}.txt"
    text = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    write_atomic(json_path, text.encode("utf-8"))
    lines = [f"AUDIT {'PASS' if report.passed else 'FAIL'} {report.date}"]
    if not report.chain_ok:
        lines.append(f"chain inconsistent at height {report.first_bad_height}")
    for m in report.mismatches:
        lines.append(
            f"mismatch stage={m.stage} key={m.key} expected={m.expected} found={m.found}"
        )
    for notice in report.notices:
        lines.append(notice)
    write_atomic(txt_path, ("\n".join(lines) + "\n").encode("utf-8"))
    return json_path, txt_path
