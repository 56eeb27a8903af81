import gc
import math
import random
from datetime import date
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carboncert import metersim
from carboncert.metersim import (
    FaultConfig,
    FleetConfig,
    SolarProfile,
    TransportMessage,
    clear_sky_power,
    generate_day_columns,
    generate_day_readings,
    meter_sample_times,
    run_day,
    sample_meter,
)
from carboncert.model import METER_IDS, SECONDS_PER_DAY, TOTAL_PHASES, InvalidMeter, PhaseReading, parse_date

PROFILE = SolarProfile()


def test_clear_sky_zero_at_night():
    assert clear_sky_power(0, PROFILE) == 0.0
    assert clear_sky_power(PROFILE.sunrise, PROFILE) == 0.0
    assert clear_sky_power(PROFILE.sunset, PROFILE) == 0.0
    assert clear_sky_power(SECONDS_PER_DAY - 1, PROFILE) == 0.0


def test_clear_sky_peaks_at_solar_noon():
    noon = (PROFILE.sunrise + PROFILE.sunset) // 2
    assert clear_sky_power(noon, PROFILE) == pytest.approx(PROFILE.peak_plant_power)
    assert clear_sky_power(noon - 3600, PROFILE) < PROFILE.peak_plant_power


def test_clear_sky_rejects_out_of_day():
    with pytest.raises(ValueError):
        clear_sky_power(-1, PROFILE)
    with pytest.raises(ValueError):
        clear_sky_power(SECONDS_PER_DAY, PROFILE)


def test_clear_sky_takes_an_array_of_seconds():
    t = np.array([0, PROFILE.sunrise, PROFILE.sunrise + 1, 43200, PROFILE.sunset - 1, PROFILE.sunset, 86399])
    power = clear_sky_power(t, PROFILE)
    assert power.shape == t.shape
    assert power.tolist() == [clear_sky_power(int(s), PROFILE) for s in t]
    with pytest.raises(ValueError):
        clear_sky_power(np.array([0, SECONDS_PER_DAY]), PROFILE)


def test_clear_sky_daily_integral_matches_analytic():
    # integral of peak*sin(pi x / span) over the span = 2/pi * peak * span
    total = sum(clear_sky_power(t, PROFILE) for t in range(SECONDS_PER_DAY))
    span = PROFILE.sunset - PROFILE.sunrise
    analytic = 2.0 / math.pi * PROFILE.peak_plant_power * span
    assert total == pytest.approx(analytic, rel=1e-4)


def test_profile_validation():
    with pytest.raises(ValueError):
        SolarProfile(sunrise=70000, sunset=60000)


def test_sample_meter_deterministic_and_order_free():
    a = sample_meter(3, 1_748_736_000, PROFILE, seed=9)
    sample_meter(5, 1_748_736_017, PROFILE, seed=9)  # interleave another key
    b = sample_meter(3, 1_748_736_000, PROFILE, seed=9)
    assert a == b


def test_sample_meter_varies_with_key():
    base = sample_meter(3, 1_748_736_000, PROFILE, seed=9)
    assert sample_meter(4, 1_748_736_000, PROFILE, seed=9) != base
    assert sample_meter(3, 1_748_736_001, PROFILE, seed=9) != base
    assert sample_meter(3, 1_748_736_000, PROFILE, seed=10) != base


def test_sample_meter_three_phases_and_derived_quantities():
    noon_ts = 1_748_736_000 + 43200
    readings = sample_meter(2, noon_ts, PROFILE, seed=1)
    assert [r.phase for r in readings] == [1, 2, 3]
    for r in readings:
        assert r.meter_id == 2 and r.ts == noon_ts
        assert 0.93 <= r.power_factor <= 1.0
        assert r.apparent_power == pytest.approx(r.active_power / r.power_factor)
        assert r.current == pytest.approx(r.apparent_power / r.voltage)


def test_sample_meter_noise_envelope():
    # 3-sigma clipped noise around the clear-sky per-phase nominal with +-1% bias
    noon_ts = 1_748_736_000 + 43200
    nominal = PROFILE.peak_plant_power / TOTAL_PHASES
    for seed in range(20):
        for r in sample_meter(1, noon_ts, PROFILE, seed=seed):
            bound = nominal * (1.01) * (1 + 3 * PROFILE.noise_stddev_fraction)
            assert 0 < r.active_power <= bound * 1.0001
            assert abs(r.voltage - 230.0) <= 230.0 * 0.002 * 3 * 1.0001
            assert abs(r.frequency - 50.0) <= 0.01 * 3 * 1.0001


def test_sample_meter_zero_band_noon_power():
    # with calibration band zeroed the mean per-phase power at noon is the
    # nominal 100 kW / 24 phases
    noon_ts = 1_748_736_000 + 43200
    vals = [
        r.active_power
        for seed in range(300)
        for r in sample_meter(1, noon_ts, PROFILE, seed=seed, accuracy_band=0.0)
    ]
    mean = sum(vals) / len(vals)
    assert mean == pytest.approx(100_000.0 / 24, rel=0.005)


def test_sample_meter_rejects_bad_meter():
    with pytest.raises(InvalidMeter):
        sample_meter(0, 1_748_736_000, PROFILE, seed=1)
    with pytest.raises(InvalidMeter):
        sample_meter(9, 1_748_736_000, PROFILE, seed=1)


def test_a_fleet_names_each_meter_once():
    # a repeated meter used to be generated twice; a day is now kept per meter
    with pytest.raises(ValueError, match=r"meters \[2, 2, 7\] name a meter twice"):
        FleetConfig(meters=(2, 2, 7))


def test_meter_bias_within_band_and_fixed():
    for meter in METER_IDS:
        b = metersim._meter_bias(7, meter, 0.01)
        assert abs(b) <= 0.01
        assert metersim._meter_bias(7, meter, 0.01) == b


def test_sample_times_periods_and_coverage():
    fleet = FleetConfig(seed=7)
    times = meter_sample_times(fleet, 1, "2025-06-01")
    gaps = {b - a for a, b in zip(times, times[1:])}
    assert gaps <= {1, 2}
    assert {1, 2} <= gaps  # both periods actually occur
    day0 = times[0]
    assert day0 % SECONDS_PER_DAY == 0
    assert times[-1] < day0 + SECONDS_PER_DAY
    # ~57.6k samples/day at mean period 1.5 s
    assert 0.9 * 86400 / 1.5 <= len(times) <= 1.1 * 86400 / 1.5


def _choice_loop_sample_times(fleet, meter_id, day_text):
    """Reference schedule: one random.Random(...).choice((1, 2)) per step."""
    day0 = parse_date(day_text)
    choice = random.Random(fleet.seed * 2**48 + meter_id * 2**44 + 7_777_777).choice
    times, t = [], day0
    while t < day0 + SECONDS_PER_DAY:
        times.append(t)
        t += choice((1, 2))
    return times


@settings(max_examples=8, deadline=None)
@given(
    seed=st.one_of(st.integers(-(2**70), -1), st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
    day=st.dates(),
)
@example(seed=0, day=date(2025, 6, 1))
@example(seed=-1, day=date(1969, 12, 31))
@example(seed=2**32, day=date(2025, 6, 1))
def test_sample_times_equal_the_choice_loop(seed, day):
    fleet = FleetConfig(seed=seed)
    for meter_id in METER_IDS:
        times = meter_sample_times(fleet, meter_id, day.isoformat())
        assert times.dtype == np.int64
        assert times.tolist() == _choice_loop_sample_times(fleet, meter_id, day.isoformat())


def test_sample_times_deterministic_per_meter():
    fleet = FleetConfig(seed=7)
    assert np.array_equal(meter_sample_times(fleet, 2, "2025-06-01"), meter_sample_times(fleet, 2, "2025-06-01"))
    assert not np.array_equal(meter_sample_times(fleet, 2, "2025-06-01"), meter_sample_times(fleet, 3, "2025-06-01"))


def test_generate_day_matches_scalar_sampler():
    fleet = FleetConfig(seed=11, meters=(1, 4, 8))
    readings = generate_day_readings(fleet, "2025-06-01")
    columns = generate_day_columns(fleet, "2025-06-01")
    rows = list(zip(*(col.tolist() for col in columns)))
    assert [r[:3] for r in rows] == sorted(r[:3] for r in rows)  # grouped (meter, phase, ts)
    assert readings == [PhaseReading._make(r) for r in rows]
    by_key = {(r.meter_id, r.phase, r.ts): r for r in readings}
    rng = random.Random(0)
    probes = rng.sample(list(by_key), 50)
    for meter_id, phase, ts in probes:
        scalar = sample_meter(meter_id, ts, fleet.profile, fleet.seed, fleet.accuracy_band)
        assert by_key[(meter_id, phase, ts)] == scalar[phase - 1]


def test_generate_day_covers_all_meters_and_phases():
    fleet = FleetConfig(seed=3)
    readings = generate_day_readings(fleet, "2025-06-01")
    assert {(r.meter_id, r.phase) for r in readings} == {
        (m, p) for m in METER_IDS for p in (1, 2, 3)
    }


def test_run_day_faultless_is_time_ordered_single_attempts():
    fleet = FleetConfig(seed=5, meters=(1, 2))
    msgs = run_day(fleet, "2025-06-01", FaultConfig())
    assert all(m.delivery_attempt == 1 for m in msgs)
    ts = [m.reading.ts for m in msgs]
    assert ts == sorted(ts)


def test_run_day_at_least_once_under_faults():
    fleet = FleetConfig(seed=5, meters=(1, 2))
    faults = FaultConfig(
        duplicate_probability=0.05,
        drop_then_retry_probability=0.05,
        reorder_jitter_max=30.0,
        rng_seed=99,
    )
    clean = run_day(fleet, "2025-06-01", FaultConfig())
    faulted = run_day(fleet, "2025-06-01", faults)
    clean_keys = {(m.reading.meter_id, m.reading.phase, m.reading.ts) for m in clean}
    faulted_keys = [(m.reading.meter_id, m.reading.phase, m.reading.ts) for m in faulted]
    # every reading delivered at least once, some more than once
    assert set(faulted_keys) == clean_keys
    assert len(faulted_keys) > len(clean_keys)
    # payloads are unchanged by transport
    by_key = {}
    for m in faulted:
        k = (m.reading.meter_id, m.reading.phase, m.reading.ts)
        assert by_key.setdefault(k, m.reading) == m.reading
    clean_by_key = {(m.reading.meter_id, m.reading.phase, m.reading.ts): m.reading for m in clean}
    assert by_key == clean_by_key
    # a dropped first attempt is retried, a duplicate is attempts 1 and 2
    attempts = {}
    for m in faulted:
        attempts.setdefault(m.reading, []).append(m.delivery_attempt)
    assert {tuple(sorted(a)) for a in attempts.values()} == {(1,), (2,), (1, 2)}


def test_run_day_reordering_bounded_by_jitter():
    fleet = FleetConfig(seed=5, meters=(1,))
    jitter = 30.0
    faults = FaultConfig(reorder_jitter_max=jitter, rng_seed=4)
    msgs = run_day(fleet, "2025-06-01", faults)
    max_seen = -1
    for m in msgs:
        # a reading may arrive late by at most the jitter bound
        assert m.reading.ts >= max_seen - jitter
        max_seen = max(max_seen, m.reading.ts)


def test_run_day_equals_the_namedtuple_construction():
    # reference: the same day built through the namedtuple constructors,
    # with the collector running
    fleet = FleetConfig(seed=13, meters=(2, 7))
    rows = zip(*(col.tolist() for col in generate_day_columns(fleet, "2025-06-01")))
    readings = list(map(PhaseReading._make, rows))
    keys = [np.fromiter(map(itemgetter(k), readings), np.int64, len(readings)) for k in range(3)]
    faulted = FaultConfig(
        duplicate_probability=0.1, drop_then_retry_probability=0.05, reorder_jitter_max=30.0, rng_seed=8
    )
    for faults in (FaultConfig(), faulted):
        index, attempt = metersim.deliver(*keys, faults)
        expected = list(map(TransportMessage, map(readings.__getitem__, index.tolist()), attempt.tolist()))
        msgs = run_day(fleet, "2025-06-01", faults)
        assert msgs == expected
        assert all(type(m) is TransportMessage and type(m.reading) is PhaseReading for m in msgs)
    del msgs, expected
    day = generate_day_readings(fleet, "2025-06-01")
    assert day == readings and all(type(r) is PhaseReading for r in day)


def test_day_stream_gives_each_meter_its_share_of_the_whole_day():
    fleet = FleetConfig(seed=13, meters=(2, 5, 7))
    faults = FaultConfig(
        duplicate_probability=0.1, drop_then_retry_probability=0.05, reorder_jitter_max=30.0, rng_seed=8
    )
    readings = generate_day_columns(fleet, "2025-06-01")
    index, attempt = metersim.deliver(readings.meter_id, readings.phase, readings.ts, faults)
    day = metersim.DayStream(fleet, "2025-06-01", faults)
    assert (day.readings, day.messages) == (readings.ts.shape[0], index.shape[0])
    for meter_id in (7, 2, 5):  # any order
        cols, delivery = day.meter(meter_id)
        rows = readings.meter_id == meter_id
        first = np.flatnonzero(rows)[0]
        for got, whole in zip(cols, readings):
            np.testing.assert_array_equal(got, whole[rows])
        # the meter's messages, in the order the whole day's delivery has them
        mine = readings.meter_id[index] == meter_id
        np.testing.assert_array_equal(delivery.index, index[mine] - first)
        np.testing.assert_array_equal(delivery.attempt, attempt[mine])


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_enabled", "gc_disabled"])
def test_day_builds_leave_the_collector_as_found(enabled, monkeypatch):
    fleet = FleetConfig(seed=5, meters=(1,))
    found = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        generate_day_readings(fleet, "2025-06-01")
        assert gc.isenabled() is enabled
        run_day(fleet, "2025-06-01", FaultConfig())
        assert gc.isenabled() is enabled

        seen = []

        def failing_deliver(*args):
            seen.append(gc.isenabled())
            raise RuntimeError("transport down")

        monkeypatch.setattr(metersim, "deliver", failing_deliver)
        with pytest.raises(RuntimeError, match="transport down"):
            run_day(fleet, "2025-06-01", FaultConfig())
        assert seen == [False]  # paused while the day is built
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if found else gc.disable()


@pytest.mark.parametrize(
    "bad",
    [
        dict(duplicate_probability=0.6, drop_then_retry_probability=0.5),
        dict(duplicate_probability=-0.1),
        dict(reorder_jitter_max=-1.0),
        dict(drop_then_retry_probability=float("nan")),
        dict(rng_seed=1.5),
        dict(rng_seed=-1),
        dict(duplicate_probability=True),
        dict(reorder_jitter_max=float("inf")),
        dict(drop_then_retry_probability="0.1"),
    ],
)
def test_fault_config_rejects_impossible_values(bad):
    with pytest.raises(ValueError):
        FaultConfig(**bad)


def test_fleet_config_from_dict():
    cfg = FleetConfig.from_dict(
        {
            "seed": 42,
            "profile": {"peak_plant_power": 50_000.0},
            "assignments": {"A": [1, 2], "B": [3, 4]},
        }
    )
    assert cfg.seed == 42
    assert cfg.profile.peak_plant_power == 50_000.0
    assert cfg.assignments == {"A": (1, 2), "B": (3, 4)}


def test_fleet_config_from_dict_without_assignments_routes_only_the_fleets_meters():
    assert FleetConfig.from_dict({"meters": [7, 2]}).assignments == {"A": (2,), "B": (7,)}
    assert FleetConfig.from_dict({"meters": [5, 6]}).assignments == {"B": (5, 6)}
    assert FleetConfig.from_dict({}).assignments == FleetConfig().assignments


def test_a_fleet_built_in_python_without_assignments_routes_only_its_meters():
    # only from_dict used to narrow the default collectors: FleetConfig(meters=(1, 8))
    # kept A: 1-4, B: 5-8 and published six all-empty CSVs
    assert FleetConfig(meters=(1, 8)).assignments == {"A": (1,), "B": (8,)}
    assert FleetConfig(meters=(5, 6)).assignments == {"B": (5, 6)}
    assert FleetConfig().assignments == {"A": (1, 2, 3, 4), "B": (5, 6, 7, 8)}
    assert FleetConfig(meters=(2, 7)) == FleetConfig.from_dict({"meters": [2, 7]})
