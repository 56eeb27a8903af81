"""Third-party verification: independent replay of raw CSVs against the chain.

This module deliberately re-implements CSV parsing, minute fusion, anomaly
rules, canonical serialization, and the energy arithmetic instead of calling
the pipeline modules: an audit must not assume the system under audit is
honest. Only the shared type definitions, the atomic file publish and the
forked worker (``model.Forked``) are reused.

The audit's two halves are independent: when more than one CPU is usable
and the chain is long, ``replay_verify`` replays the CSVs in a forked
process while this one checks the chain (``verify_chain``), so it must be
called from a process that runs no other thread.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .ledger import ChainDamaged
from .model import AnomalyRules, EmissionConfig, Forked, usable_cpus, write_atomic

WINDOWS_PER_DAY = 288
TOTAL_PHASES = 24
REL_TOL = 1e-9
# The CSVs are replayed in a forked process only for a chain of this many
# transactions or more. On a 2-vCPU Xeon (Python 3.11.7) a day's replay took
# 0.066-0.072 s, 0.084-0.088 s in a forked process with its fork and join,
# while a day's chain, 288 transactions, was checked in 0.019-0.021 s on a
# fresh open: forked, the audit took 0.11-0.12 s against 0.084-0.09 s in one
# process (medians of 15, in two runs).
_FORK_MIN_TXS = 1_000

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

    def __reduce__(self):  # so that it crosses a process boundary
        return type(self), (self.date,)


class UnreadableCsv(ValueError):
    """A collector CSV that cannot be read, named by file, or does not parse, named by file and line."""

    def __init__(self, path: Path, line: Optional[int], cause):
        super().__init__(f"{path}: {cause}" if line is None else f"{path} line {line}: {cause}")
        self.path = path
        self.line = line
        self.cause = cause

    def __reduce__(self):  # so that it crosses a process boundary
        return type(self), (self.path, self.line, self.cause)


class UnreadableRecord(ValueError):
    """A chain value the comparison cannot read, named by key: not a JSON
    object, or without a field it reads, or that field of another type; or
    a key whose window or minute is not its number in digits."""

    def __init__(self, key: str, cause):
        super().__init__(f"{key}: {cause}")
        self.key = key
        self.cause = cause

    def __reduce__(self):  # so that it crosses a process boundary
        return type(self), (self.key, self.cause)


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


_json_str = json.encoder.encode_basestring_ascii  # the text json.dumps gives a str


def _canon(value) -> str:
    kind = type(value)  # the exact types a batch holds first; subclasses (bool, a str Enum) below
    if kind is float:
        return "%.3f" % (value + 0.0)
    if kind is str:
        return _json_str(value)
    if kind is dict:
        return "{" + ",".join([
            (_json_str(k) if type(k) is str else json.dumps(k)) + ":" + _canon(value[k]) for k in sorted(value)
        ]) + "}"
    if kind is list:
        return "[" + ",".join([_canon(v) for v in value]) + "]"
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


def _epoch(text: str, midnights: Optional[Dict[str, int]] = None) -> int:
    """Epoch of the fixed-width form the collectors write; any other spelling
    is refused, so the audit is no more lenient than the pipeline it checks.
    ``midnights``, when given, holds the midnight epoch of each date dated:
    a time on a date held there is dated from it."""
    if not _CSV_TS(text):
        raise ValueError(f"not a YYYY-MM-DDTHH:MM:SSZ timestamp: {text!r}")
    hour, minute, second = int(text[11:13]), int(text[14:16]), int(text[17:19])
    midnight = None if midnights is None else midnights.get(text[:10])
    if midnight is None or hour > 23 or minute > 59 or second > 59:
        # datetime() range-checks each field, so it rejects what strptime rejects
        dt = datetime(int(text[:4]), int(text[5:7]), int(text[8:10]), hour, minute, second, tzinfo=timezone.utc)
        midnight = int(dt.timestamp()) - 3600 * hour - 60 * minute - second
        if midnights is not None:
            midnights[text[:10]] = midnight
    return midnight + 3600 * hour + 60 * minute + second


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
    an empty reading is None. Current and apparent power are not read, nor
    the sample count beyond whether it is above 0."""

    minute: List[int]
    meter_id: List[int]
    phase: List[int]
    power: List[Optional[float]]
    voltage: List[Optional[float]]
    pf: List[Optional[float]]
    frequency: List[Optional[float]]
    present: List[bool]  # the row has samples


def _parse_csv(path: Path, epochs: Dict[str, int], midnights: Dict[str, int]) -> _Rows:
    """Parse one collector CSV column by column; ``epochs`` holds the epoch of
    each timestamp text seen in the day's files, ``midnights`` that of each
    date (``_epoch``). A file the parse refuses is read again row by row, so
    that the error names its first bad line."""
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
            epochs[text] = _epoch(text, midnights)
        present = _whole(cells[9::width], lambda c: int(c) > 0)
        return _Rows(
            minute=list(map(epochs.__getitem__, stamps)),
            meter_id=_whole(cells[1::width]),
            phase=_whole(cells[2::width]),
            power=_reals(cells[3::width], present),
            voltage=_reals(cells[4::width], present),
            pf=_reals(cells[6::width], present),
            frequency=_reals(cells[7::width], present),
            present=present,
        )
    except ValueError:
        _first_bad_row(path, lines)
        raise


def _whole(cells: List[str], parse=int) -> list:
    """``parse`` of each cell, called once per distinct text: meter, phase and sample count have few."""
    parsed = {c: parse(c) for c in set(cells)}
    return list(map(parsed.__getitem__, cells))


def _reals(cells: List[str], present: List[bool]) -> List[Optional[float]]:
    """The readings, an empty one None; refused where its row has samples."""
    if "" not in cells:
        return list(map(float, cells))
    if any(has and not c for c, has in zip(cells, present)):
        raise ValueError("a row with samples has an empty reading")
    return [float(c) if c else None for c in cells]


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


def _concat(column: Sequence[list], dtype) -> np.ndarray:
    """The files' lists of one column as one array, in file order."""
    return np.concatenate([np.array(values, dtype=dtype) for values in column])


def _sort_keys(column: Sequence[List[int]]) -> np.ndarray:
    """int64 keys that order as the Python ints of the files' lists, joined, do, of any size."""
    rank = {v: i for i, v in enumerate(sorted(set().union(*column)))}
    return _concat([list(map(rank.__getitem__, values)) for values in column], np.int64)


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
    midnights: Dict[str, int] = {}
    parsed = [_parse_csv(f, epochs, midnights) for f in files]
    day = _Rows(*zip(*parsed))  # each column as the files' lists
    minute = _concat(day.minute, np.int64)
    order = np.lexsort((_sort_keys(day.phase), _sort_keys(day.meter_id), minute))
    minute = minute[order]
    new_minute = np.ones(len(minute), dtype=bool)
    new_minute[1:] = minute[1:] != minute[:-1]
    minutes = minute[new_minute]
    slot = np.cumsum(new_minute) - 1
    present = _concat(day.present, bool)[order]
    slot = slot[present]

    def column(values):
        return _concat(values, np.float64)[order][present]

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
    # each epoch's text as _ts spells it: the CSVs' own, on each date whose
    # spelling is _ts's (a year below 1000 has four digits there, not in _ts)
    as_ts = {text for text, midnight in midnights.items() if _ts(midnight) == f"{text}T00:00:00Z"}
    texts = {epoch: text for text, epoch in epochs.items() if text[:10] in as_ts}
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
            "minute_start": texts.get(epoch) or _ts(epoch),
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
            "window_start": texts.get(start) or _ts(start),
            "window_end": texts.get(start + 300) or _ts(start + 300),
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


def compare_with_chain(
    replay: DayReplay, chain, producer: str, emission: EmissionConfig, first_bad: Optional[int]
) -> AuditReport:
    """Compare an independent replay against chain contents for one day, whose
    ``verify_chain()`` gave ``first_bad``; the credit's carbon is recomputed
    at ``emission``'s factor, not its own."""
    report = AuditReport(
        date=replay.date,
        chain_ok=first_bad is None,
        first_bad_height=first_bad,
        replay_matches=True,
    )

    compact = replay.date.replace("-", "")
    prefix = f"batch/{producer}/{producer}-{compact}-"
    chain_windows = _numbered(chain.state_items(prefix), prefix, 3)

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
    q_prefix = f"quarantine/{producer}/{replay.date}/"
    chain_q = {
        minute_index: _record(f"{q_prefix}{minute_index:04d}", v)
        for minute_index, v in _numbered(chain.state_items(q_prefix), q_prefix, 4).items()
    }
    for minute_index in sorted(expected_q.keys() | chain_q.keys()):
        key = f"{q_prefix}{minute_index:04d}"
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
    missing_key = f"missing/{producer}/{replay.date}"
    missing_raw = chain.query_state(missing_key)
    chain_missing = _record(missing_key, missing_raw, windows=list)["windows"] if missing_raw else []
    if not all(type(w) is int for w in chain_missing):
        raise UnreadableRecord(missing_key, f"'windows' is {chain_missing!r}, not window numbers")
    if sorted(chain_missing) != sorted(replay.missing_windows):
        report.mismatches.append(
            Mismatch(
                stage="missing",
                key=missing_key,
                expected=",".join(map(str, sorted(replay.missing_windows))),
                found=",".join(map(str, sorted(chain_missing))),
            )
        )

    # credit totals
    accrual_key = f"accrual/{producer}/{replay.date}"
    accrual_raw = chain.query_state(accrual_key)
    if accrual_raw is not None:
        serial = _record(accrual_key, accrual_raw, serial=str)["serial"]
        credit_raw = chain.query_state(f"credit/{serial}")
        if credit_raw is None:
            report.mismatches.append(
                Mismatch(stage="credit", key=serial, expected="record", found=None)
            )
        else:
            credit = _record(
                f"credit/{serial}", credit_raw, energy_kwh=_NUMBER, co2_kg=_NUMBER, factor_used=_NUMBER,
                excluded_minutes=object, state=object,
            )
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


_NUMBER = (int, float)
_KINDS = {_NUMBER: "a number", str: "a string", list: "a list"}


def _numbered(values: Dict[str, bytes], prefix: str, digits: int) -> Dict[int, bytes]:
    """The chain values of keys ``prefix`` + a number, by that number, which
    each key spells in ``digits`` digits as the chaincode writes it;
    UnreadableRecord names a key spelled otherwise."""
    numbered = {}
    for key, value in values.items():
        number = key[len(prefix):]
        if not re.fullmatch(f"[0-9]{{{digits}}}", number):
            raise UnreadableRecord(key, f"{number!r} is not a {digits}-digit number")
        numbered[int(number)] = value
    return numbered


def _record(key: str, raw: bytes, **fields) -> dict:
    """The JSON object the chain holds at ``key``, with each of ``fields``
    of its given type; UnreadableRecord where it is not one."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise UnreadableRecord(key, exc) from None
    if type(record) is not dict:
        raise UnreadableRecord(key, "not a JSON object")
    for name, kind in fields.items():
        if name not in record:
            raise UnreadableRecord(key, f"no {name!r}")
        if not isinstance(record[name], kind):
            raise UnreadableRecord(key, f"{name!r} is {record[name]!r}, not {_KINDS[kind]}")
    return record


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
    unparseable CSVs, a chain value whose payload cannot be decoded, and a
    chain key or value the comparison cannot read, give a failed report
    whose notice says why.

    Without a replay given, with more than one CPU usable and a chain of
    ``_FORK_MIN_TXS`` transactions or more, the CSVs are replayed in a
    forked process (``model.Forked``) while this one runs ``verify_chain``;
    the chain is checked once either way. Where there is no fork, or the
    replay's process dies, the CSVs are replayed here. The replay's process
    is reaped before this returns or raises. Call it from a process that
    runs no other thread, as ``verify_chain``: a fork copies no thread, and
    a lock another thread held stays locked in the child.
    """
    rules = rules or AnomalyRules()
    replaying = None
    if replay is None and usable_cpus() > 1 and chain.transaction_count >= _FORK_MIN_TXS:
        try:
            replaying = Forked(replay_day, csv_roots, date, rules, producer)
        except (ValueError, OSError):  # no fork here, or no process to be had: replay here
            pass
    try:
        first_bad = chain.verify_chain()
        if replaying is not None:
            replay = _joined(replaying)
        if replay is None:
            replay = replay_day(csv_roots, date, rules, producer)
        return compare_with_chain(replay, chain, producer, emission or EmissionConfig(), first_bad)
    except (MissingData, UnreadableCsv, ChainDamaged, UnreadableRecord) as exc:
        if isinstance(exc, ChainDamaged):  # a read that found it marked damage, maybe lower
            first_bad = chain.verify_chain()
        return AuditReport(
            date=date,
            chain_ok=first_bad is None,
            first_bad_height=first_bad,
            replay_matches=False,
            notices=[f"{type(exc).__name__}: {exc}"],
        )
    finally:
        if replaying is not None:
            replaying.stop()  # killed if it still runs, after an exception; reaped


def _joined(replaying: Forked) -> Optional[DayReplay]:
    """The replay the forked ``replay_day`` returned; what it raised is raised
    here. None when its process died first."""
    outcome = replaying.join()
    if outcome is None:
        return None
    finished, value = outcome
    if not finished:
        raise value
    return value


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
