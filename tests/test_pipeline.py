import hashlib

import pytest

from carboncert import cli, metersim, pipeline
from carboncert.collector import Collector, CollectorConfig

FAULTS = dict(duplicate_probability=0.1, drop_then_retry_probability=0.05, reorder_jitter_max=30.0)

# sha256 over (path relative to the home, NUL, bytes) of every CSV of a clean
# RunConfig(seed=7) day, as published before minute means moved to arrays.
SEED_7_CSV_SHA256 = "bd8f41133d976a567e0a0ba388f772834a22a3f6dc44b2b91db9a598cff6e9ca"


def test_clean_day_csvs_match_golden_digest(sim_day):
    config, result = sim_day
    h = hashlib.sha256()
    for path in sorted(result.csv_paths):
        h.update(path.relative_to(config.home).as_posix().encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == SEED_7_CSV_SHA256
    assert (result.messages, result.accepted, result.duplicates, result.rejected) == (1383252, 1383252, 0, 0)
    assert result.notices == []


@pytest.mark.parametrize("faulted", (False, True))
@pytest.mark.parametrize("seed", (11, 12, 13))
def test_columnar_and_per_message_paths_write_identical_csvs(tmp_path, seed, faulted):
    faults = metersim.FaultConfig(**FAULTS, rng_seed=seed) if faulted else metersim.FaultConfig()
    fleet = metersim.FleetConfig(meters=(2, 7))  # one meter per collector keeps the day short
    config = pipeline.RunConfig(home=tmp_path / "columnar", seed=seed, fleet=fleet, faults=faults)
    result = pipeline.run_simulation(config)

    messages = metersim.run_day(config.fleet, config.date, config.faults)
    root = tmp_path / "per-message"
    for cid, meters in config.fleet.assignments.items():
        instance = Collector(CollectorConfig(cid, frozenset(meters), root))
        for msg in messages:
            instance.ingest(msg)
        instance.write_day_csv(config.date, instance.close_day(config.date))
    assert len(result.csv_paths) == 8
    for path in result.csv_paths:
        assert (root / path.relative_to(config.collectors_root)).read_bytes() == path.read_bytes()


def test_faulted_day_accepts_each_reading_once(tmp_path):
    config = pipeline.RunConfig(
        home=tmp_path,
        seed=5,
        fleet=metersim.FleetConfig(meters=(1, 8)),
        faults=metersim.FaultConfig(**FAULTS, rng_seed=5),
    )
    result = pipeline.run_simulation(config)
    readings = 3 * sum(len(metersim.meter_sample_times(config.fleet, m, config.date)) for m in config.fleet.meters)
    assert result.accepted == readings
    assert result.duplicates == result.messages - readings > 0
    assert result.rejected == 0


def test_simulate_prints_notices_to_stderr(tmp_path, capsys):
    (tmp_path / "collectors" / "A" / "2025-06-01" / "SEM9.csv").mkdir(parents=True)  # not a file
    rc = cli.main(["--home", str(tmp_path), "simulate", "--date", "2025-06-01", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[0] == "34560 / 1440 / 288"
    assert captured.err.splitlines() == [f"notice: IoFailure: {tmp_path / 'collectors/A/2025-06-01/SEM9.csv'}"]
