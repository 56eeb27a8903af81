import hashlib
import json
import math
import multiprocessing
import os
import pickle
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from carboncert import cli, metersim, pipeline
from carboncert.aggregator import AnomalyRules
from carboncert.collector import Collector, CollectorConfig, IoFailure
from carboncert.model import EmissionConfig, canonical_json

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


@pytest.mark.parametrize(
    "meters, assignments, rejects",
    [
        ((2, 7), None, False),
        ((1, 2, 3, 4), {"A": (1, 3), "B": (2, 4)}, False),
        ((1, 2, 5), {"A": (1,), "B": (5,)}, True),  # meter 2 reaches no collector
    ],
    ids=["one-meter-each", "interleaved", "unassigned-meter"],
)
def test_streamed_day_keeps_the_whole_day_fault_stream(tmp_path, meters, assignments, rejects):
    fleet = metersim.FleetConfig(meters=meters, **({"assignments": assignments} if assignments else {}))
    faults = metersim.FaultConfig(**FAULTS, rng_seed=4)
    config = pipeline.RunConfig(home=tmp_path / "streamed", seed=4, fleet=fleet, faults=faults)
    result = pipeline.run_simulation(config)

    # reference: the whole fleet's day generated and delivered at once, each
    # collector ingesting that one delivery
    readings = metersim.generate_day_columns(config.fleet, config.date)
    delivery = metersim.deliver(readings.meter_id, readings.phase, readings.ts, config.faults)
    messages, accepted, duplicates = delivery.index.shape[0], 0, 0
    for cid, assigned in config.fleet.assignments.items():
        counts = Collector(CollectorConfig(cid, frozenset(assigned), tmp_path)).ingest_columns(readings, delivery.index)
        accepted, duplicates = accepted + counts.accepted, duplicates + counts.duplicates
    expected = (messages, accepted, duplicates, messages - accepted - duplicates)
    assert (result.messages, result.accepted, result.duplicates, result.rejected) == expected
    assert result.duplicates > 0 and (result.rejected > 0) == rejects
    del readings, delivery

    root = tmp_path / "per-message"
    day = metersim.run_day(config.fleet, config.date, config.faults)
    for cid, assigned in config.fleet.assignments.items():
        instance = Collector(CollectorConfig(cid, frozenset(assigned), root))
        for msg in day:
            instance.ingest(msg)
        instance.write_day_csv(config.date, instance.close_day(config.date))
    assert len(result.csv_paths) == sum(map(len, config.fleet.assignments.values()))
    for path in result.csv_paths:
        assert (root / path.relative_to(config.collectors_root)).read_bytes() == path.read_bytes()


def _traced_peak(run) -> int:
    """Bytes tracemalloc saw allocated at most during ``run()``, beyond those held before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_day_is_held_one_meter_at_a_time(tmp_path):
    # numpy reports its buffers to tracemalloc. Peak of this clean four-meter
    # day's collectors, run one after the other in one process, on a 2-vCPU
    # Xeon (Python 3.11.7, numpy 2.4.6): 110.1 MB when the whole fleet's day
    # was generated and delivered at once, 47-54 MB one meter at a time. The
    # bound sits between the two.
    config = pipeline.RunConfig(home=tmp_path, seed=3, fleet=metersim.FleetConfig(meters=(1, 2, 5, 6)))
    day = metersim.DayStream(config.fleet, config.date, config.faults)

    def collect():
        for cid, meters in sorted(config.fleet.assignments.items()):
            collector = CollectorConfig(cid, frozenset(meters), config.collectors_root)
            pipeline.run_collector(day, collector, config.date)

    peak = _traced_peak(collect)
    assert peak < 80 * 2**20, f"peak {peak / 2**20:.1f} MB"
    # the collectors' arrays stay in their worker processes: 14.2 MB on the
    # same host, against the 47 MB of one collector's day held here
    peak = _traced_peak(lambda: pipeline.run_simulation(replace(config, home=tmp_path / "pooled")))
    assert peak < 30 * 2**20, f"parent peak {peak / 2**20:.1f} MB"


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


def test_simulate_exits_one_on_a_row_with_samples_and_an_empty_reading(tmp_path, capsys):
    from carboncert.collector import CSV_HEADER

    stray = tmp_path / "collectors" / "A" / "2025-06-01" / "SEM9.csv"
    stray.parent.mkdir(parents=True)
    stray.write_text(CSV_HEADER + "\n2025-06-01T00:00:00Z,9,1,,230.000,17.900,0.970,50.000,4123.000,40\n")
    config = tmp_path / "run.json"
    config.write_text('{"meters": [2, 7]}')  # one meter per collector keeps the day short
    rc = cli.main(["--home", str(tmp_path), "simulate", "--config", str(config), "--date", "2025-06-01"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error [simulate]: {stray} line 2: a row with samples has an empty reading\n"
    assert not (tmp_path / "chain" / "blocks" / "1.json").exists()


def test_an_io_failure_crosses_a_process_boundary(tmp_path):
    path = tmp_path / "A" / "SEM1.csv"
    failure = IoFailure(path, NotADirectoryError(20, "Not a directory", str(path.parent)))
    copy = pickle.loads(pickle.dumps(failure))
    assert type(copy) is IoFailure and str(copy) == str(failure) and copy.path == path


def test_a_workers_io_failure_reaches_the_cli_as_in_one_process(tmp_path, capsys):
    (tmp_path / "collectors").mkdir()
    (tmp_path / "collectors" / "A").touch()  # not a directory
    config = tmp_path / "run.json"
    config.write_text('{"meters": [2, 7]}')
    rc = cli.main(["--home", str(tmp_path), "simulate", "--config", str(config), "--date", "2025-06-01"])
    day_dir = tmp_path / "collectors" / "A" / "2025-06-01"
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error [simulate]: I/O failure at {day_dir / 'SEM1.csv'}: [Errno 20] Not a directory: '{day_dir}'\n"
    )
    assert multiprocessing.active_children() == []


_run_collector = pipeline.run_collector


def _collector_b_dies(day, config, date):
    if config.collector_id == "B":
        os._exit(3)
    return _run_collector(day, config, date)


@pytest.mark.parametrize("cpus", ({0}, {0, 1}), ids=["one-worker", "two-workers"])
def test_a_dead_worker_fails_the_day_before_anything_is_submitted(tmp_path, capsys, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    config = tmp_path / "run.json"
    config.write_text('{"meters": [2, 7]}')  # one meter per collector keeps the day short
    argv = ["--home", str(tmp_path), "simulate", "--config", str(config), "--date", "2025-06-01"]
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "run_collector", _collector_b_dies)
        rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert multiprocessing.active_children() == []
    # with one worker A's day is done when B's worker dies; with two the pool
    # ends A's worker too, and both days are named
    lost = "collector B" if cpus == {0} else "(collector B|collectors A, B)"
    assert re.fullmatch(
        rf"error \[simulate\]: a collector worker process ended abruptly: the day of {lost} did not finish\n", err
    ), err
    assert sorted(p.name for p in (tmp_path / "chain" / "blocks").iterdir()) == ["0.json"]  # genesis only

    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "34560 / 1440 / 288"
    assert multiprocessing.active_children() == []


def test_the_worker_count_changes_no_output(tmp_path, monkeypatch):
    fleet = metersim.FleetConfig(meters=(1, 2, 3, 4), assignments={"A": (1, 3), "B": (2, 4)})
    faults = metersim.FaultConfig(**FAULTS, rng_seed=4)
    runs = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        config = pipeline.RunConfig(home=tmp_path / str(len(cpus)), seed=4, fleet=fleet, faults=faults)
        result = pipeline.run_simulation(config)
        assert multiprocessing.active_children() == []
        paths = [path.relative_to(config.home) for path in result.csv_paths]
        csvs = [path.read_bytes() for path in result.csv_paths]
        runs[len(cpus)] = replace(result, csv_paths=paths), csvs
    assert runs[1] == runs[2]
    assert [path.as_posix() for path in runs[1][0].csv_paths] == [
        f"collectors/{cid}/2025-06-01/SEM{m}.csv" for cid, m in (("A", 1), ("A", 3), ("B", 2), ("B", 4))
    ]


def test_a_fleet_without_collectors_rejects_every_message(tmp_path):
    fleet = metersim.FleetConfig(meters=(2,), assignments={})
    result = pipeline.run_simulation(pipeline.RunConfig(home=tmp_path, fleet=fleet))
    assert (result.csv_rows, result.csv_paths, result.accepted) == (0, [], 0)
    assert result.rejected == result.messages > 0


def test_open_ledger_applies_journals_only_under_the_same_contract_settings(tmp_path, monkeypatch):
    config = pipeline.RunConfig(home=tmp_path)
    ledger = pipeline.open_ledger(config)
    pipeline.bootstrap_identities(ledger, config)
    entry = {"minute_start": "2025-06-01T00:01:00Z", "codes": ["RAMP"]}
    op = canonical_json({"op": "quarantine", "date": config.date, "entries": [entry]})
    assert ledger.get_transaction(ledger.submit_tx(op, config.producer)).status == "VALID"
    ledger.cut_all()

    calls, contracts = [], []
    contract_cls = pipeline.CreditContract

    def counting(**kw):
        contracts.append(kw)
        contract = contract_cls(**kw)

        def call(op, submitter, state):
            calls.append(op["op"])
            return contract(op, submitter, state)

        return call

    monkeypatch.setattr(pipeline, "CreditContract", counting)
    reopened = pipeline.open_ledger(config)
    assert calls == []  # the open applied the block's journal
    assert reopened.verify_chain() is None and calls == ["quarantine"]
    calls.clear()
    # the reopened contract has the chain's rules, whatever the caller's say, so
    # the journals written under them still apply
    config.rules = AnomalyRules(max_ramp_watts_per_minute=60_000.0001)
    pipeline.open_ledger(config)
    assert calls == [] and contracts[-1] == {"emission": EmissionConfig(), "rules": AnomalyRules()}
    # a change of contract logic is another version: the journals are not applied
    monkeypatch.setattr(pipeline, "CONTRACT_VERSION", pipeline.CONTRACT_VERSION + 1)
    pipeline.open_ledger(config)
    assert calls == ["quarantine"]


finite = dict(allow_nan=False, allow_infinity=False)


def _number(lo, hi):
    return st.integers(math.ceil(lo), math.floor(hi)) | st.floats(lo, hi, **finite)


def _range(lo, hi):
    return st.tuples(_number(lo, hi), _number(lo, hi)).filter(lambda r: r[0] < r[1])


@settings(max_examples=40, deadline=None)
@given(
    emission=st.builds(EmissionConfig, _number(0.25, 1.06), _number(1e-3, 1e9)),
    rules=st.builds(
        AnomalyRules, _range(-1e6, 1e6), _range(0, 1e3), _range(0, 100), _number(1e-3, 1e9)
    ),
)
@example(  # differs from the defaults only past canonical JSON's third decimal
    emission=EmissionConfig(0.4000001, 100_000.0001),
    rules=AnomalyRules((-200.0, 6000.0), (207.0, 253.0004), (49.5, 50.5), 60_000.0001),
)
def test_a_chain_reopens_with_exactly_the_parameters_it_was_created_with(tmp_path_factory, emission, rules):
    home = tmp_path_factory.mktemp("params")
    pipeline.open_ledger(pipeline.RunConfig(home=home, emission=emission, rules=rules))
    reopened = pipeline.open_ledger(pipeline.RunConfig(home=home))  # no config given
    assert repr((reopened.chaincode.emission, reopened.chaincode.rules)) == repr((emission, rules))
    *params, members = pipeline.chain_parameters(home / "chain")
    assert repr(tuple(params)) == repr((emission, rules))
    assert set(members) == set(pipeline.RunConfig(home).members)
    assert reopened.verify_chain() is None


def test_journals_hold_batches_as_slices_of_their_payloads(sim_day):
    config, _ = sim_day
    blocks = sorted((config.chain_root / "blocks").glob("*.json"))
    journals = sorted((config.chain_root / "writes").glob("*.json"))
    assert len(journals) == len(blocks) - 1  # every block but genesis
    txs = [t for p in journals for t in json.loads(p.read_bytes())["body"]["txs"]]
    assert all(isinstance(v, list) == k.startswith("batch/") for t in txs for k, v in t["writes"].items())
    # the batch bytes sit in the block payloads once; each journal points at them
    assert sum(p.stat().st_size for p in journals) < sum(p.stat().st_size for p in blocks) / 3


def test_run_config_leaves_the_given_fleet_alone(tmp_path):
    # RunConfig used to write its seed into the fleet it was given, so a
    # second config built on the same fleet changed the first one's telemetry
    fleet = metersim.FleetConfig(meters=(2, 7))
    first = pipeline.RunConfig(home=tmp_path, seed=1, fleet=fleet)
    second = pipeline.RunConfig(home=tmp_path, seed=2, fleet=fleet)
    assert (first.seed, first.fleet.seed) == (1, 1)
    assert (second.seed, second.fleet.seed) == (2, 2)
    assert fleet == metersim.FleetConfig(meters=(2, 7))
