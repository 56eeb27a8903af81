"""Shared domain types: timestamps, canonical JSON serialization, hashing.

Timestamps are carried as integer epoch seconds (UTC, second resolution)
up to the records the chain stores, which hold the canonical wire form
``YYYY-MM-DDTHH:MM:SSZ``.

Content hashing uses SHA-256 (hashlib.sha256); digests are 32 raw bytes,
rendered as 64 lowercase hex characters.

``canonical_json`` serializes any value and is the reference. A batch, which
the chain stores and re-executes by the thousand, has ``batch_bytes``: the
same bytes from its fixed key layout, with no sorting and no type dispatch
for an exact float, str, int or None.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

SECONDS_PER_DAY = 86400
WINDOW_SECONDS = 300
WINDOWS_PER_DAY = 288
MINUTES_PER_DAY = 1440
METER_IDS = tuple(range(1, 9))
PHASES = (1, 2, 3)
TOTAL_PHASES = 24
SCHEMA_VERSION = 1

ZERO_HASH_HEX = "0" * 64

_TS_FMT = "%Y-%m-%dT%H:%M:%SZ"
_TS_FIXED = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z").fullmatch
_DATE_FIXED = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch


class NonAligned(ValueError):
    """Timestamp does not sit on the required boundary."""


def parse_ts(text: str) -> int:
    """Epoch of a ``YYYY-MM-DDTHH:MM:SSZ`` timestamp; no other spelling is accepted."""
    if not _TS_FIXED(text):
        raise ValueError(f"not a YYYY-MM-DDTHH:MM:SSZ timestamp: {text!r}")
    hour, minute, second = int(text[11:13]), int(text[14:16]), int(text[17:19])
    if hour > 23 or minute > 59 or second > 59:  # no hour 24 or second 60
        raise ValueError(f"time out of range: {text!r}")
    return _midnight(text[:10]) + 3600 * hour + 60 * minute + second


def format_ts(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(_TS_FMT)


def parse_date(text: str) -> int:
    """Midnight epoch of a ``YYYY-MM-DD`` date; no other spelling is accepted."""
    if not _DATE_FIXED(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return _midnight(text)


@lru_cache(maxsize=256)
def _midnight(date: str) -> int:
    """Midnight epoch of a ``YYYY-MM-DD`` text of ASCII digits; datetime()
    range-checks the fields: no month 13, 30 February or year 0."""
    return int(datetime(int(date[0:4]), int(date[5:7]), int(date[8:10]), tzinfo=timezone.utc).timestamp())


def compact_date(epoch: int) -> str:
    """``YYYYMMDD`` of the epoch's UTC date, as ``strftime`` spells it: a year
    below 1000 has fewer than four digits."""
    return _compact_day(epoch // SECONDS_PER_DAY)


@lru_cache(maxsize=256)
def _compact_day(day: int) -> str:
    return datetime.fromtimestamp(day * SECONDS_PER_DAY, tz=timezone.utc).strftime("%Y%m%d")


def window_index(minute_start: int) -> int:
    """Five-minute window index within the day, 0..287."""
    if minute_start % 60 != 0:
        raise NonAligned(f"not minute-aligned: {format_ts(minute_start)}")
    return (minute_start % SECONDS_PER_DAY) // WINDOW_SECONDS


class Role(str, Enum):
    PRODUCER = "PRODUCER"
    CERTIFIER = "CERTIFIER"
    AUDITOR = "AUDITOR"


class Quality(str, Enum):
    OK = "OK"
    PARTIAL = "PARTIAL"
    FLAGGED = "FLAGGED"


class PhaseReading(NamedTuple):
    """One electrical sample from one phase of one meter.

    (meter_id, phase, ts) is the identity key.
    """

    meter_id: int
    phase: int
    ts: int
    active_power: float
    voltage: float
    current: float
    power_factor: float
    frequency: float
    apparent_power: float


class MinuteRecord(NamedTuple):
    """Per-phase minute averages; sample_count 0 means all averages absent."""

    meter_id: int
    phase: int
    minute_start: int
    avg_active_power: Optional[float]
    avg_voltage: Optional[float]
    avg_current: Optional[float]
    avg_power_factor: Optional[float]
    avg_frequency: Optional[float]
    avg_apparent_power: Optional[float]
    sample_count: int


@dataclass(frozen=True)
class Identity:
    name: str
    role: Role
    key_id: str


def finite_number(value, what: str):
    """``value`` itself if it is a finite int or float (not a bool), else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number: {value!r}")
    return value


def whole_number(value, what: str) -> int:
    """``value`` itself if it is an int (not a bool), else ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer: {value!r}")
    return value


@dataclass
class EmissionConfig:
    """Carbon conversion configuration; factor bounded to the plausible range."""

    factor_kg_per_kwh: float = 0.4
    plant_capacity_watts: float = 100_000.0

    def __post_init__(self):
        finite_number(self.factor_kg_per_kwh, "emission factor")
        finite_number(self.plant_capacity_watts, "plant capacity")
        if not 0.25 <= self.factor_kg_per_kwh <= 1.06:
            raise ValueError(f"emission factor out of range: {self.factor_kg_per_kwh}")
        if self.plant_capacity_watts <= 0:
            raise ValueError("plant capacity must be positive")


@dataclass
class AnomalyRules:
    """The anomaly rules' thresholds, which the aggregator applies, genesis
    records, and the chaincode and the audit apply again."""

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


_json_str = json.encoder.encode_basestring_ascii  # the bytes json.dumps gives a str


def _emit(value) -> str:
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, float):
        return format(value + 0.0, ".3f")  # +0.0 normalizes -0.0
    if isinstance(value, dict):
        items = [
            (_json_str(key) if isinstance(key, str) else json.dumps(key)) + ":" + _emit(value[key])
            for key in sorted(value)
        ]
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_emit(v) for v in value]) + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return repr(value)
    raise TypeError(f"not canonically serializable: {type(value)!r}")


def canonical_json(value) -> bytes:
    """Deterministic JSON: sorted keys, no whitespace, reals at 3 decimals."""
    return _emit(value).encode("utf-8")


def _leaf(value) -> str:
    """``_emit(value)``, on a fast path for an exact float, str, int or None."""
    kind = type(value)
    if kind is float:
        return format(value + 0.0, ".3f")
    if kind is str:
        return _json_str(value)
    if kind is int:
        return repr(value)
    if value is None:
        return "null"
    return _emit(value)


def _aggregate_text(agg: dict) -> str:
    flags = agg["flags"]
    return (
        f'{{"avg_frequency":{_leaf(agg["avg_frequency"])},"avg_voltage":{_leaf(agg["avg_voltage"])},'
        f'"flags":{_emit(flags) if flags else "[]"},"minute_start":{_leaf(agg["minute_start"])},'
        f'"phase_count":{_leaf(agg["phase_count"])},"quality":{_leaf(agg["quality"])},'
        f'"total_power":{_leaf(agg["total_power"])}}}'
    )


def batch_bytes(batch: dict) -> bytes:
    """``canonical_json(batch)`` for a batch dict laid out as
    ``aggregator.make_batches`` lays it out, with a list of aggregates and a
    list of flags in each: the keys' sorted order is written out instead of
    sorted per dict."""
    aggregates = ",".join([_aggregate_text(agg) for agg in batch["aggregates"]])
    return (
        f'{{"aggregates":[{aggregates}],"batch_id":{_leaf(batch["batch_id"])},'
        f'"producer_id":{_leaf(batch["producer_id"])},"schema_version":{_leaf(batch["schema_version"])},'
        f'"window_end":{_leaf(batch["window_end"])},"window_start":{_leaf(batch["window_start"])}}}'
    ).encode("utf-8")


def digest_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector; leave it enabled or disabled as found.
    For code that builds many container objects, none of them cyclic garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class Forked:
    """``target(*args)`` run in a forked process, which sends back over a pipe
    what it returned or raised. Raises ValueError where there is no fork and
    OSError when no process is to be had. Fork from a process that runs no
    other thread: a fork copies no thread, and a lock another thread held
    stays locked in the child."""

    def __init__(self, target, *args):
        import multiprocessing  # here, so that a process that forks nothing does not import it

        context = multiprocessing.get_context("fork")
        self._outcome, sender = context.Pipe(duplex=False)
        try:
            self._process = context.Process(target=_send_outcome, args=(sender, target, args))
            self._process.start()
        except BaseException:
            self._outcome.close()
            raise
        finally:
            sender.close()

    def join(self):
        """Wait for the process and reap it. Returns (True, what ``target``
        returned) or (False, what it raised); None when the process ended
        without sending either, or with an exit code other than 0."""
        try:
            outcome = self._outcome.recv()
        except EOFError:
            outcome = None
        finally:
            self._outcome.close()
            self._process.join()
        return outcome if self._process.exitcode == 0 else None

    def stop(self) -> None:
        """Kill the process if it still runs, and reap it."""
        self._process.kill()
        self._process.join()
        self._outcome.close()


def _send_outcome(sender, target, args) -> None:
    try:
        outcome = True, target(*args)
    except Exception as exc:  # the parent decides what it means
        outcome = False, exc
    sender.send(outcome)


def write_atomic(path, data: bytes) -> None:
    """Publish ``data`` at ``path`` whole or not at all: temp file, fsync, rename,
    then fsync the directory so the rename itself survives a power cut.

    The temp name ``<name>.tmp`` matches no reader's ``*.json`` or ``*.csv``."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(path)


def write_new(path, data: bytes) -> None:
    """Publish ``data`` at ``path`` whole or not at all, and never over a file
    there: a temp file under a name no other writer uses, fsync, a hard link
    to ``path``, which raises FileExistsError when ``path`` exists, then the
    temp file is unlinked and the directory fsynced.

    The temp name ``<name>.<random hex>.tmp`` matches no reader's ``*.json``."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.link(tmp, path)
    finally:
        with suppress(OSError):
            os.unlink(tmp)
    _fsync_dir(path)


def _fsync_dir(path) -> None:
    """fsync the directory holding ``path``, so that a name just put there survives a power cut."""
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def batch_id_for(producer_id: str, window_start: int) -> str:
    return f"{producer_id}-{compact_date(window_start)}-{window_index(window_start):03d}"
