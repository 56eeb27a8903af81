"""Smart-contract logic: batch validation, energy accounting, credit lifecycle.

Energy and carbon conversion:

    energy_kwh = p_avg_watts * duration_min / 60000
    co2_kg     = energy_kwh * factor        (factor defaults to 0.4 kg/kWh)

Credits advance PENDING -> VERIFIED -> ISSUED -> (SOLD | RETIRED); the two
terminal states are mutually exclusive, and each (producer, date) accrues
at most one credit, so no unit of energy can be counted twice.

Every audit re-executes the whole chain, so a batch costs what its window
costs: its aggregates are walked once, for their structure, their minutes
and their ranges together (the reasons still come in the order
``validate_batch`` names), ``window_start`` and ``window_end`` are parsed
once, each ``minute_start`` must be one of the five spellings of the
window's minutes, the batch is written as ``model.batch_bytes`` renders it,
the bytes ``canonical_json`` gives, and the producer's ``head/`` value is
spelled out as ``_store`` writes it, without ``json.dumps``.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional, Tuple

from .ledger import ChainResult, StateView
from .model import (
    MINUTES_PER_DAY,
    SECONDS_PER_DAY,
    WINDOW_SECONDS,
    WINDOWS_PER_DAY,
    AnomalyRules,
    EmissionConfig,
    Identity,
    Quality,
    Role,
    batch_bytes,
    batch_id_for,
    compact_date,
    parse_date,
    parse_ts,
)

# Raise with every change to what a transaction validates or writes: write-set
# journals written under one contract version are never applied under another.
# The values it validates and computes with are the chain's: its genesis records them.
CONTRACT_VERSION = 4

LEGAL_STEPS = {
    "PENDING": ("VERIFIED",),
    "VERIFIED": ("ISSUED",),
    "ISSUED": ("SOLD", "RETIRED"),
    "SOLD": (),
    "RETIRED": (),
}
# credit op -> (the role that may take it, the states it may move a credit to);
# an op that may reach more than one names its choice in its ``target``. A
# producer steps only its own credits; whether the step is legal from the
# credit's state is LEGAL_STEPS's to say.
_CREDIT_OPS = {
    "credit_verify": (Role.CERTIFIER, ("VERIFIED",)),
    "credit_issue": (Role.CERTIFIER, ("ISSUED",)),
    "credit_transition": (Role.PRODUCER, ("SOLD", "RETIRED")),
}

_BATCH_KEYS = frozenset({
    "batch_id",
    "window_start",
    "window_end",
    "producer_id",
    "schema_version",
    "aggregates",
})
_AGG_KEYS = frozenset({
    "minute_start",
    "total_power",
    "avg_voltage",
    "avg_frequency",
    "phase_count",
    "quality",
    "flags",
})
_QUALITIES = frozenset(q.value for q in Quality)
_FLAGGED = Quality.FLAGGED.value


class ChaincodeError(ValueError):
    pass


class NegativePower(ChaincodeError):
    pass


class NonPositiveDuration(ChaincodeError):
    pass


class FactorOutOfRange(ChaincodeError):
    pass


def compute_energy(p_avg: float, duration_min: float) -> float:
    """kWh produced by p_avg watts sustained for duration_min minutes."""
    if p_avg < 0:
        raise NegativePower(f"p_avg must be >= 0, got {p_avg}")
    if duration_min <= 0:
        raise NonPositiveDuration(f"duration must be positive, got {duration_min}")
    return p_avg * duration_min / 60000.0


def compute_co2(energy_kwh: float, config: EmissionConfig) -> float:
    """kg CO2 avoided for the given energy at the configured factor."""
    if energy_kwh < 0:
        raise NegativePower(f"energy must be >= 0, got {energy_kwh}")
    factor = config.factor_kg_per_kwh
    if not 0.25 <= factor <= 1.06:
        raise FactorOutOfRange(str(factor))
    return energy_kwh * factor


def _ts_or_none(value) -> Optional[int]:
    try:
        return parse_ts(value)
    except (TypeError, ValueError):  # TypeError: not a str
        return None


def _day_batch_keys(producer: str, day0: int) -> List[str]:
    """State keys of the producer's batches for windows 0..287 of the day at ``day0``."""
    prefix = f"batch/{producer}/{producer}-{compact_date(day0)}-"
    return [f"{prefix}{w:03d}" for w in range(WINDOWS_PER_DAY)]


def day_on_chain(state: StateView, producer: str, date: str) -> bool:
    """Whether the state holds a batch or a missing-window report of the producer's date."""
    if state.get(f"missing/{producer}/{date}") is not None:
        return True
    return any(state.get(key) is not None for key in _day_batch_keys(producer, parse_date(date)))


def _check_structure(batch, submitter: Identity, limits: Optional[tuple] = None) -> Optional[str]:
    """"structure" or "unauthorized" when ``batch`` fails that check: a flag
    that is not text is "structure", and so is a nan or infinite number of a
    flagged aggregate (one that is not flagged is out of range). Else,
    given ``limits`` (``_limits``), what its aggregates say: "timestamps" when
    a ``minute_start`` does not spell one of the window's minutes later than
    the one before it (a timestamp has one spelling, so it is matched as
    text), else "ranges" when an aggregate that is not flagged is out of the
    limits; else None. The aggregates are walked once: ``validate_batch``
    reports these two after its duplicate check and ``_check_timestamps``."""
    if not isinstance(batch, dict) or batch.keys() != _BATCH_KEYS:
        return "structure"
    if not isinstance(batch["batch_id"], str) or not isinstance(batch["producer_id"], str):
        return "structure"
    if not isinstance(batch["schema_version"], int):
        return "structure"
    aggregates = batch["aggregates"]
    if not isinstance(aggregates, list) or len(aggregates) > 5:
        return "structure"
    in_order, in_range, earliest = True, True, 0  # without limits, every aggregate is both
    minutes = _window_minutes(batch["window_start"]) if limits else {}
    cap, v_lo, v_hi, f_lo, f_hi = limits or (None,) * 5
    for agg in aggregates:
        if not isinstance(agg, dict) or agg.keys() != _AGG_KEYS:
            return "structure"
        power, voltage, frequency = agg["total_power"], agg["avg_voltage"], agg["avg_frequency"]
        if not isinstance(power, (int, float)):
            return "structure"
        if voltage is not None and not isinstance(voltage, (int, float)):
            return "structure"
        if frequency is not None and not isinstance(frequency, (int, float)):
            return "structure"
        if not isinstance(agg["phase_count"], int) or not 0 <= agg["phase_count"] <= 24:
            return "structure"
        quality = agg["quality"]
        if not isinstance(quality, str) or quality not in _QUALITIES:
            return "structure"
        flags = agg["flags"]
        if not isinstance(flags, list) or (flags and not all(isinstance(flag, str) for flag in flags)):
            return "structure"
        if quality == _FLAGGED and not _finite(power, voltage, frequency):  # the others must be in range
            return "structure"
        if not limits:
            continue
        minute = agg["minute_start"]
        index = minutes.get(minute) if isinstance(minute, str) else None
        if index is None or index < earliest:
            in_order = False
        else:
            earliest = index + 1
        if in_range and quality != _FLAGGED:  # flagged minutes are carried for audit, not range-enforced
            in_range = (
                0 <= power <= cap
                and (voltage is None or v_lo <= voltage <= v_hi)
                and (frequency is None or f_lo <= frequency <= f_hi)
            )
    if batch["producer_id"] != submitter.name:
        return "unauthorized"
    if not in_order:
        return "timestamps"
    return None if in_range else "ranges"


def _finite(*numbers) -> bool:
    """Whether no float of ``numbers`` is nan or infinite: JSON has no such
    number, so a batch that holds one cannot be stored as JSON."""
    return all(not isinstance(number, float) or math.isfinite(number) for number in numbers)


def _limits(rules: AnomalyRules, emission: EmissionConfig) -> tuple:
    """The ranges an aggregate that is not flagged must keep: power up to 110%
    of the plant's capacity, then voltage and frequency."""
    return (emission.plant_capacity_watts * 1.1, *rules.voltage_range, *rules.frequency_range)


def _check_timestamps(batch, state: StateView) -> Optional[str]:
    """"timestamps" when the window's timestamps or batch id fail, or the
    window starts before the producer's last one ended; ``_check_structure``
    checks the aggregates' minutes."""
    start = _ts_or_none(batch["window_start"])
    end = _ts_or_none(batch["window_end"])
    if start is None or end is None:
        return "timestamps"
    if start % WINDOW_SECONDS != 0 or end != start + WINDOW_SECONDS:
        return "timestamps"
    if batch["batch_id"] != batch_id_for(batch["producer_id"], start):
        return "timestamps"
    head_raw = state.get(f"head/{batch['producer_id']}")
    if head_raw is not None:
        head = json.loads(head_raw.decode())["window_end"]
        if start < parse_ts(head):
            return "timestamps"
    return None


def _window_minutes(window_start) -> dict:
    """The spellings of a window's five minutes, each to its index: the text
    of its aligned ``window_start`` with the minute raised by 0 to 4; {} when
    it is no text or that minute no number: such a window fails its own check."""
    if not isinstance(window_start, str):
        return {}
    try:
        minute = int(window_start[14:16])
    except ValueError:
        return {}
    return {f"{window_start[:14]}{minute + k:02d}{window_start[16:]}": k for k in range(5)}


def validate_batch(
    batch,
    submitter: Identity,
    state: StateView,
    rules: AnomalyRules,
    emission: EmissionConfig,
) -> Tuple[bool, Optional[str]]:
    """Checks: structure, duplicate batch_id, timestamps, ranges; first failure wins."""
    reason = _check_structure(batch, submitter, _limits(rules, emission))
    if reason in ("structure", "unauthorized"):
        return False, reason
    if state.get(f"batch/{batch['producer_id']}/{batch['batch_id']}") is not None:
        return False, "duplicate"
    reason = _check_timestamps(batch, state) or reason  # "timestamps" comes before "ranges"
    return reason is None, reason


def _store(value: dict) -> bytes:
    return json.dumps(value, sort_keys=True).encode("utf-8")


class CreditContract:
    """Chaincode entry point dispatching on the payload's ``op`` field."""

    def __init__(
        self,
        emission: Optional[EmissionConfig] = None,
        rules: Optional[AnomalyRules] = None,
    ):
        self.emission = emission or EmissionConfig()
        self.rules = rules or AnomalyRules()
        self._handlers = {
            "submit_batch": self._submit_batch,
            "report_missing": self._report_missing,
            "quarantine": self._quarantine,
            "accrue": self._accrue,
            **dict.fromkeys(_CREDIT_OPS, self._credit_step),
        }

    def __call__(self, op: dict, submitter: Identity, state: StateView) -> ChainResult:
        handler = self._handlers.get(op.get("op"))
        if handler is None:
            return ChainResult(False, "structure", {}, ())
        return handler(op, submitter, state)

    # -- batches ------------------------------------------------------------

    def _submit_batch(self, op, submitter, state) -> ChainResult:
        batch = op.get("batch")
        touched = []
        if isinstance(batch, dict) and isinstance(batch.get("batch_id"), str):
            touched.append(f"batch/{batch.get('producer_id')}/{batch['batch_id']}")
        if submitter.role != Role.PRODUCER:
            return ChainResult(False, "unauthorized", {}, tuple(touched))
        ok, reason = validate_batch(batch, submitter, state, self.rules, self.emission)
        if not ok:
            return ChainResult(False, reason, {}, tuple(touched))
        key = f"batch/{batch['producer_id']}/{batch['batch_id']}"
        head_key = f"head/{batch['producer_id']}"
        # _store's bytes: a validated timestamp is ASCII that JSON does not escape
        writes = {key: batch_bytes(batch), head_key: f'{{"window_end": "{batch["window_end"]}"}}'.encode("ascii")}
        return ChainResult(True, None, writes, (key, head_key))

    def _report_missing(self, op, submitter, state) -> ChainResult:
        if submitter.role != Role.PRODUCER or op.get("producer") != submitter.name:
            return ChainResult(False, "unauthorized", {}, ())
        windows = op.get("windows")
        date = op.get("date")
        if not isinstance(date, str) or not isinstance(windows, list):
            return ChainResult(False, "structure", {}, ())
        if not all(isinstance(w, int) and 0 <= w < WINDOWS_PER_DAY for w in windows):
            return ChainResult(False, "structure", {}, ())
        try:
            batch_keys = _day_batch_keys(submitter.name, parse_date(date))
        except ValueError:
            return ChainResult(False, "structure", {}, ())
        key = f"missing/{submitter.name}/{date}"
        # a report never replaces committed data: neither a batch nor an earlier report
        if any(state.get(batch_keys[w]) is not None for w in windows):
            return ChainResult(False, "window_committed", {}, (key,))
        if state.get(key) is not None:
            return ChainResult(False, "already_reported", {}, (key,))
        return ChainResult(True, None, {key: _store({"windows": sorted(windows)})}, (key,))

    def _quarantine(self, op, submitter, state) -> ChainResult:
        if submitter.role != Role.PRODUCER:
            return ChainResult(False, "unauthorized", {}, ())
        date = op.get("date")
        entries = op.get("entries")
        if not isinstance(date, str) or not isinstance(entries, list) or not entries:
            return ChainResult(False, "structure", {}, ())
        try:
            day0 = parse_date(date)
        except ValueError:
            return ChainResult(False, "structure", {}, ())
        prefix = f"quarantine/{submitter.name}/{date}/"
        writes = {}
        for entry in entries:
            minute = _ts_or_none(entry.get("minute_start")) if isinstance(entry, dict) else None
            if minute is None:
                return ChainResult(False, "structure", {}, ())
            if minute % 60 != 0 or not day0 <= minute < day0 + SECONDS_PER_DAY:
                return ChainResult(False, "timestamps", {}, ())
            writes[f"{prefix}{(minute - day0) // 60:04d}"] = _store(entry)
        if len(writes) < len(entries):  # a minute named twice: its later entry replaced the earlier
            return ChainResult(False, "structure", {}, ())
        touched = tuple(sorted(writes))
        # a producer files a date's quarantine records once: none is ever replaced
        if any(state.get(f"{prefix}{i:04d}") is not None for i in range(MINUTES_PER_DAY)):
            return ChainResult(False, "already_reported", {}, touched)
        return ChainResult(True, None, writes, touched)

    # -- credits ------------------------------------------------------------

    def _accrue(self, op, submitter, state) -> ChainResult:
        producer = op.get("producer")
        date = op.get("date")
        if not isinstance(producer, str) or not isinstance(date, str):
            return ChainResult(False, "structure", {}, ())
        accrual_key = f"accrual/{producer}/{date}"
        touched = (accrual_key,)
        if submitter.role != Role.PRODUCER or producer != submitter.name:
            return ChainResult(False, "unauthorized", {}, touched)
        if state.get(accrual_key) is not None:
            return ChainResult(False, "already_accrued", {}, touched)
        try:
            day0 = parse_date(date)
        except ValueError:
            return ChainResult(False, "structure", {}, touched)
        # a validated batch id is <producer>-<date>-<window>: look the day's 288 up
        batches = {}
        for w, key in enumerate(_day_batch_keys(producer, day0)):
            raw = state.get(key)
            if raw is not None:
                batches[w] = raw
        covered = set(batches)
        missing_raw = state.get(f"missing/{producer}/{date}")
        missing = set(json.loads(missing_raw.decode())["windows"]) if missing_raw else set()
        if covered | missing != set(range(WINDOWS_PER_DAY)):
            return ChainResult(False, "unresolved_windows", {}, touched)

        energy = 0.0
        power_sum = 0.0
        unflagged = 0
        excluded: List[str] = []
        for raw in batches.values():  # in window order
            batch = json.loads(raw.decode("utf-8"))
            for agg in batch["aggregates"]:
                if agg["quality"] == _FLAGGED:
                    excluded.append(agg["minute_start"])
                    continue
                power = float(agg["total_power"])
                energy += compute_energy(power, 1)
                power_sum += power
                unflagged += 1
        if energy <= 0.0:
            return ChainResult(False, "no_valid_energy", {}, touched)
        co2 = compute_co2(energy, self.emission)

        seq_key = f"creditseq/{producer}"
        seq_raw = state.get(seq_key)
        seq = (json.loads(seq_raw.decode())["next"] if seq_raw else 1)
        serial = f"CC-{producer}-{compact_date(day0)}-{seq}"
        credit_key = f"credit/{serial}"
        record = {
            "serial": serial,
            "producer": producer,
            "date": date,
            "state": "PENDING",
            "energy_kwh": energy,
            "co2_kg": co2,
            "factor_used": self.emission.factor_kg_per_kwh,
            "p_avg_watts": power_sum / unflagged,
            "duration_min": unflagged,
            "excluded_minutes": excluded,
            "certifier": None,
        }
        writes = {
            credit_key: _store(record),
            accrual_key: _store({"serial": serial}),
            seq_key: _store({"next": seq + 1}),
        }
        return ChainResult(True, None, writes, (credit_key, accrual_key, seq_key))

    def _credit_step(self, op, submitter, state) -> ChainResult:
        serial = op.get("serial")
        if not isinstance(serial, str):
            return ChainResult(False, "structure", {}, ())
        key = f"credit/{serial}"
        raw = state.get(key)
        if raw is None:
            return ChainResult(False, "unknown_credit", {}, (key,))
        credit = json.loads(raw.decode("utf-8"))
        role, reachable = _CREDIT_OPS[op["op"]]
        target = reachable[0] if len(reachable) == 1 else op.get("target")
        if target not in reachable:
            return ChainResult(False, "structure", {}, (key,))
        if submitter.role != role or (role == Role.PRODUCER and credit["producer"] != submitter.name):
            return ChainResult(False, "unauthorized", {}, (key,))
        if target not in LEGAL_STEPS[credit["state"]]:
            return ChainResult(False, "illegal_transition", {}, (key,))
        credit["state"] = target
        if target == "VERIFIED":
            credit["certifier"] = submitter.name
        return ChainResult(True, None, {key: _store(credit)}, (key,))
