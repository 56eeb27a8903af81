"""Telemetry simulation for eight three-phase meters over one day.

Generation is fully deterministic given the fleet seed: every sample is
drawn from an RNG keyed by (seed, meter_id, timestamp), so samples can be
regenerated in any order. Delivery faults (duplicates, drop-then-retry,
bounded reordering) come from a separate RNG stream so the generated
readings are identical across fault configurations.

A day travels as columns (``generate_day_columns``) and its delivery as
index arrays into them (``deliver``); ``generate_day_readings`` and
``run_day`` give the same day as ``PhaseReading`` and ``TransportMessage``
tuples. ``DayStream`` gives the same day one meter at a time, each meter's
columns and delivery drawn from the one fault stream of the whole day, so
that a pipeline holds one meter's arrays at once.

The run configuration it simulates, ``SolarProfile``, ``FaultConfig`` and
``FleetConfig``, is defined in ``model``, so that a process that simulates
nothing reads it without numpy; it is used here under the same names
(``metersim.FleetConfig`` is ``model.FleetConfig``).
``FleetConfig.__post_init__`` holds the whole fleet policy: a fleet that
exists is valid, however it was built, so generation checks no meter id again.

Each meter's sampling schedule is the step sequence that
``random.Random(s).choice((1, 2))`` draws, read in one numpy pass: the
seeded Mersenne Twister state goes to ``np.random.MT19937``, whose raw 32-bit
outputs are the same stream. ``choice`` of two takes ``getrandbits(2)``, the
top two bits of one output, and redraws on 2 or 3; so each output whose top
bits are 0 or 1 is a step of 1 or 2 seconds and the others are skipped. The
schedule stays the int64 array that pass gives.

The cyclic garbage collector is paused while a day's tuples are built.
CPython stops tracking only exact tuples whose items cannot hold references
back, never tuple subclasses: every ``PhaseReading`` and ``TransportMessage``
stays tracked, so each collection during the build would walk all of those
built so far. Pausing is safe because they hold only ints, floats and other
such tuples and so can form no reference cycle; there is nothing for the
collector to free, and nothing it would have freed is kept.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import List, NamedTuple

import numpy as np

from .model import (
    SECONDS_PER_DAY,
    TOTAL_PHASES,
    FaultConfig,
    FleetConfig,
    PhaseReading,
    SolarProfile,
    check_meter,
    gc_paused,
    parse_date,
)

NOMINAL_VOLTAGE = 230.0
NOMINAL_FREQUENCY = 50.0
VOLTAGE_NOISE_FRACTION = 0.002
FREQUENCY_NOISE_STDDEV = 0.01


class TransportMessage(NamedTuple):
    reading: PhaseReading
    delivery_attempt: int


# C-level constructors from a tuple of fields; the namedtuple ``__new__`` and
# ``_make`` are Python functions, called once per tuple.
_new_reading = partial(tuple.__new__, PhaseReading)
_new_message = partial(tuple.__new__, TransportMessage)


class ReadingColumns(NamedTuple):
    """Readings as parallel arrays, one row per ``PhaseReading`` with the same field names."""

    meter_id: "np.ndarray"
    phase: "np.ndarray"
    ts: "np.ndarray"
    active_power: "np.ndarray"
    voltage: "np.ndarray"
    current: "np.ndarray"
    power_factor: "np.ndarray"
    frequency: "np.ndarray"
    apparent_power: "np.ndarray"


class Delivery(NamedTuple):
    """Transport messages in arrival order: the reading each one carries, as a
    row index into the day's readings, and its delivery attempt."""

    index: "np.ndarray"
    attempt: "np.ndarray"


def clear_sky_power(t, profile: SolarProfile):
    """Plant power at second-of-day t: half-sine bump between sunrise and sunset.
    A number gives a float; an array of them gives an array."""
    tod = np.asarray(t)
    if not np.all((0 <= tod) & (tod < SECONDS_PER_DAY)):
        raise ValueError(f"second-of-day out of range: {t}")
    span = profile.sunset - profile.sunrise
    inside = (tod > profile.sunrise) & (tod < profile.sunset)
    power = np.where(inside, profile.peak_plant_power * np.sin(math.pi * (tod - profile.sunrise) / span), 0.0)
    return float(power) if power.ndim == 0 else power


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO_POW_NEG53 = 2.0**-53


def _meter_bias(seed: int, meter_id: int, band: float) -> float:
    h = ((seed * 1_000_003 + meter_id) * 2654435761) % (2**32)
    return (h / 2**31 - 1.0) * band


def _sample_block(
    meter_id: int,
    ts_arr: "np.ndarray",
    profile: SolarProfile,
    seed: int,
    accuracy_band: float,
) -> dict:
    """Vectorized sample kernel: noise is a splitmix64 hash of (seed, meter, ts),
    so any subset of timestamps reproduces the same values in any order.

    Returns per-phase arrays keyed active/voltage/current/power_factor/apparent
    (each a 3-tuple of arrays) plus the shared frequency array.
    """
    n = ts_arr.shape[0]
    x0 = (
        ts_arr.astype(np.uint64)
        + np.uint64((seed * _GOLDEN) & _MASK64)
        + np.uint64((meter_id * 0xC2B2AE3D27D4EB4F) & _MASK64)
    )
    u = np.empty((11, n))
    for k in range(11):
        x = x0 + np.uint64(((k + 1) * _GOLDEN) & _MASK64)
        z = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        u[k] = (z >> np.uint64(11)).astype(np.float64) * _TWO_POW_NEG53
    np.maximum(u, _TWO_POW_NEG53, out=u)

    g = np.empty((7, n))  # Box-Muller pairs; g[0..2] power, g[3..5] voltage, g[6] frequency
    for pair in range(4):
        r = np.sqrt(-2.0 * np.log(u[2 * pair]))
        a = (2.0 * math.pi) * u[2 * pair + 1]
        g[2 * pair] = r * np.cos(a)
        if pair < 3:  # the fourth pair's sine would be an eighth normal, which nothing reads
            g[2 * pair + 1] = r * np.sin(a)
    np.clip(g, -3.0, 3.0, out=g)

    nominal = clear_sky_power(ts_arr % SECONDS_PER_DAY, profile) / TOTAL_PHASES
    scale = (1.0 + _meter_bias(seed, meter_id, accuracy_band)) * nominal
    sigma = profile.noise_stddev_fraction

    frequency = NOMINAL_FREQUENCY + FREQUENCY_NOISE_STDDEV * g[6]
    active, voltage, current, power_factor, apparent = [], [], [], [], []
    for idx in range(3):
        act = scale * (1.0 + sigma * g[idx])
        volt = NOMINAL_VOLTAGE * (1.0 + VOLTAGE_NOISE_FRACTION * g[3 + idx])
        pf = 0.97 + (u[8 + idx] * 2.0 - 1.0) * 0.02
        app = act / pf
        active.append(act)
        voltage.append(volt)
        power_factor.append(pf)
        apparent.append(app)
        current.append(app / volt)
    return {
        "active": active,
        "voltage": voltage,
        "current": current,
        "power_factor": power_factor,
        "apparent": apparent,
        "frequency": frequency,
    }


def sample_meter(
    meter_id: int,
    ts: int,
    profile: SolarProfile,
    seed: int,
    accuracy_band: float = 0.01,
) -> List[PhaseReading]:
    """Three phase readings for one meter at one second, deterministic in (seed, meter, ts).

    Gaussian noise is clipped at three standard deviations so per-phase power
    stays inside the physical sanity envelope.
    """
    check_meter(meter_id)
    block = _sample_block(meter_id, np.array([ts], dtype=np.int64), profile, seed, accuracy_band)
    return [
        PhaseReading(
            meter_id,
            idx + 1,
            ts,
            float(block["active"][idx][0]),
            float(block["voltage"][idx][0]),
            float(block["current"][idx][0]),
            float(block["power_factor"][idx][0]),
            float(block["frequency"][0]),
            float(block["apparent"][idx][0]),
        )
        for idx in range(3)
    ]


def meter_sample_times(fleet: FleetConfig, meter_id: int, date: str) -> "np.ndarray":
    """Sampling instants for one meter as an int64 array; period drawn
    per-message from {1 s, 2 s} (the module docstring says how the draws are read)."""
    day0 = parse_date(date)
    key = random.Random(fleet.seed * 2**48 + meter_id * 2**44 + 7_777_777).getstate()[1]
    mt = np.random.MT19937()
    mt.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(key[:624], dtype=np.uint32), "pos": key[624]},
    }
    steps, span = [], 0
    while span < SECONDS_PER_DAY:
        # half the outputs are kept, 1.5 s apart on average: 2 per second of the
        # day span about 1.5 days, so one pass nearly always covers the day
        top = (mt.random_raw(2 * SECONDS_PER_DAY) >> 30).astype(np.int64)
        steps.append(top[top < 2] + 1)
        span += int(steps[-1].sum())
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(steps))))
    return day0 + offsets[offsets < SECONDS_PER_DAY]


def _schedules(fleet: FleetConfig, date: str) -> List[tuple]:
    """(meter, sample instants as an int64 array) for each fleet meter, in fleet order."""
    return [(meter_id, meter_sample_times(fleet, meter_id, date)) for meter_id in fleet.meters]


def _readings(fleet: FleetConfig, schedules: List[tuple]) -> ReadingColumns:
    """The readings of the given (meter, instants) schedules as columns,
    grouped (meter, phase, time-ordered)."""
    total = 3 * sum(ts_arr.shape[0] for _, ts_arr in schedules)
    cols = ReadingColumns(*(np.empty(total, dtype=np.int64 if k < 3 else np.float64) for k in range(9)))
    start = 0
    for meter_id, ts_arr in schedules:
        block = _sample_block(meter_id, ts_arr, fleet.profile, fleet.seed, fleet.accuracy_band)
        stop = start + ts_arr.shape[0]
        for idx in range(3):
            values = (
                meter_id,
                idx + 1,
                ts_arr,
                block["active"][idx],
                block["voltage"][idx],
                block["current"][idx],
                block["power_factor"][idx],
                block["frequency"],
                block["apparent"][idx],
            )
            for col, value in zip(cols, values):
                col[start:stop] = value
            start, stop = stop, stop + ts_arr.shape[0]
    return cols


def generate_day_columns(fleet: FleetConfig, date: str) -> ReadingColumns:
    """All readings for the simulated day as columns, grouped (meter, phase, time-ordered).

    The per-meter values are identical to calling sample_meter at each instant.
    """
    return _readings(fleet, _schedules(fleet, date))


def generate_day_readings(fleet: FleetConfig, date: str) -> List[PhaseReading]:
    """All readings for the simulated day as tuples, in generate_day_columns' order."""
    cols = generate_day_columns(fleet, date)
    out: List[PhaseReading] = []
    edges = [0, *(np.flatnonzero(np.diff(cols.meter_id)) + 1).tolist(), cols.ts.shape[0]]
    with gc_paused():
        for start, stop in zip(edges, edges[1:]):
            # A meter's three phases share its instants and frequency: one Python
            # object per instant, not per reading, keeps a day's tuples smaller.
            n = (stop - start) // 3
            times = cols.ts[start : start + n].tolist()
            freq = cols.frequency[start : start + n].tolist()
            meter_id = int(cols.meter_id[start])
            for idx in range(3):
                lo, hi = start + idx * n, start + (idx + 1) * n
                out.extend(
                    map(
                        _new_reading,
                        zip(
                            repeat(meter_id),
                            repeat(idx + 1),
                            times,
                            cols.active_power[lo:hi].tolist(),
                            cols.voltage[lo:hi].tolist(),
                            cols.current[lo:hi].tolist(),
                            cols.power_factor[lo:hi].tolist(),
                            freq,
                            cols.apparent_power[lo:hi].tolist(),
                        ),
                    )
                )
    return out


def deliver(meter_id, phase, ts, faults: FaultConfig) -> Delivery:
    """The at-least-once transport, applied to readings given by their key columns.

    Every reading is delivered at least once: a dropped first attempt is always
    retried (attempt 2), a duplicate is delivered as attempts 1 and 2, and a
    delivery arrives up to reorder_jitter_max seconds after its reading's ts.
    Messages are ordered by (arrival, meter, phase, attempt). Fault decisions
    and jitter come from ``np.random.default_rng(faults.rng_seed)``: first one
    draw per reading, then one per message.
    """
    rng = np.random.default_rng(faults.rng_seed)
    return _deliver(meter_id, phase, ts, faults, rng.random(ts.shape[0]), rng)


def _fault_masks(u: "np.ndarray", faults: FaultConfig):
    """(dropped, doubled): the readings whose fault draws ``u`` drop their first
    attempt, and those delivered twice."""
    dropped = u < faults.drop_then_retry_probability
    doubled = ~dropped & (u < faults.drop_then_retry_probability + faults.duplicate_probability)
    return dropped, doubled


def _deliver(meter_id, phase, ts, faults: FaultConfig, u: "np.ndarray", jitter: np.random.Generator) -> Delivery:
    """deliver, given each reading's fault draw ``u`` and the generator whose
    next draws are the messages' jitter."""
    dropped, doubled = _fault_masks(u, faults)
    copies = 1 + doubled
    index = np.repeat(np.arange(ts.shape[0]), copies)
    first = np.cumsum(copies) - copies  # position of each reading's first message
    attempt = np.ones(index.shape[0], dtype=np.int64)
    attempt[first[dropped]] = 2
    attempt[first[doubled] + 1] = 2
    arrival = ts[index] + jitter.random(index.shape[0]) * faults.reorder_jitter_max
    order = np.lexsort((attempt, phase[index], meter_id[index], arrival))
    return Delivery(index[order], attempt[order])


def _draws_from(seed: int, skip: int) -> np.random.Generator:
    """``np.random.default_rng(seed)`` after ``skip`` draws of ``random()``: a
    float64 draw takes one output of PCG64, which ``advance`` skips at once."""
    return np.random.Generator(np.random.PCG64(seed).advance(skip))


class DayStream:
    """A day of the fleet's telemetry, generated and delivered one meter at a time.

    ``meter(m)`` gives meter m's rows of ``generate_day_columns`` and its
    messages of ``deliver`` over the whole day, so one day needs one meter's
    arrays at a time. The fault stream is still the whole day's: a meter's
    fault draws are the day's at its reading offset in ``fleet.meters`` order,
    and its jitter draws the day's at the day's reading count plus its message
    offset. Each meter's schedule is computed once, when the stream is made.
    """

    def __init__(self, fleet: FleetConfig, date: str, faults: FaultConfig):
        self.fleet, self.faults = fleet, faults
        self._meters = {}  # meter -> (instants, offset of its first reading, of its first message)
        rng = np.random.default_rng(faults.rng_seed)
        readings = messages = 0
        for meter_id, ts_arr in _schedules(fleet, date):
            self._meters[meter_id] = (ts_arr, readings, messages)
            n = 3 * ts_arr.shape[0]
            readings += n
            messages += n + int(np.count_nonzero(_fault_masks(rng.random(n), faults)[1]))
        self.readings = readings  # of the whole fleet's day, each once
        self.messages = messages  # transport messages of the whole fleet's day

    def meter(self, meter_id: int):
        """(readings, delivery) of one fleet meter, as ``ReadingColumns`` and a
        ``Delivery`` whose indices are rows of those readings."""
        ts_arr, first_reading, first_message = self._meters[meter_id]
        cols = _readings(self.fleet, [(meter_id, ts_arr)])
        seed = self.faults.rng_seed
        u = _draws_from(seed, first_reading).random(cols.ts.shape[0])
        jitter = _draws_from(seed, self.readings + first_message)
        return cols, _deliver(cols.meter_id, cols.phase, cols.ts, self.faults, u, jitter)


def run_day(fleet: FleetConfig, date: str, faults: FaultConfig) -> List[TransportMessage]:
    """Deliver a day of telemetry through the at-least-once transport (see deliver)."""
    with gc_paused():
        readings = generate_day_readings(fleet, date)
        n = len(readings)
        keys = (np.fromiter(map(itemgetter(k), readings), np.int64, n) for k in range(3))
        index, attempt = deliver(*keys, faults)
        return list(map(_new_message, zip(map(readings.__getitem__, index.tolist()), attempt.tolist())))
