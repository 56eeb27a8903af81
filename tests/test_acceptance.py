"""Acceptance gate: one test per criterion, each recording a pass/fail line.

The recorded lines are echoed in the terminal summary (see conftest.py), so
the pytest output carries one explicit PASS/FAIL verdict per criterion.
"""

import json
import random
import time
from fractions import Fraction

import pytest

import conftest
from carboncert import audit, collector, metersim, pipeline
from carboncert.aggregator import AnomalyRules
from carboncert.chaincode import CONTRACT_VERSION, CreditContract, compute_co2, compute_energy
from carboncert.ledger import Ledger, make_identity
from carboncert.model import (
    WINDOWS_PER_DAY,
    EmissionConfig,
    Role,
    canonical_json,
    format_ts,
    parse_date,
)

RULES = AnomalyRules()
MANY_SEEDS = (201, 202, 203, 204, 205, 206, 207, 208, 209, 210)


def record(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def many_days(tmp_path_factory):
    """Ten randomized fault-free days, each a complete pipeline run."""
    runs = []
    for seed in MANY_SEEDS:
        home = tmp_path_factory.mktemp(f"day-{seed}")
        config = pipeline.RunConfig(home=home, date="2025-06-01", seed=seed)
        runs.append((config, pipeline.run_simulation(config)))
    return runs


# -- criterion 1: volume pipeline --------------------------------------------


def test_criterion_1_volume_pipeline(tmp_path):
    config = pipeline.RunConfig(home=tmp_path, date="2025-06-01", seed=101)
    started = time.perf_counter()
    result = pipeline.run_simulation(config)
    elapsed = time.perf_counter() - started
    volumes = (result.csv_rows, result.aggregate_count, result.batch_count)
    record(
        1,
        "volume pipeline",
        volumes == (34560, 1440, 288) and elapsed < 60.0,
        f"rows/aggregates/batches={volumes[0]}/{volumes[1]}/{volumes[2]}, {elapsed:.1f}s",
    )


# -- criterion 2: formula fidelity -------------------------------------------


def test_criterion_2_formula_fidelity():
    ok = True
    # hand-evaluated reference values
    hand = [
        (compute_energy(50_000.0, 5), Fraction(50_000 * 5, 60_000)),  # 4.16667 kWh
        (compute_energy(100_000.0, 60), Fraction(100)),
        (compute_co2(compute_energy(50_000.0, 5), EmissionConfig()),
         Fraction(50_000 * 5, 60_000) * Fraction(2, 5)),  # 1.66667 kg
    ]
    for got, want in hand:
        ok &= abs(got - float(want)) <= 1e-9 * max(1.0, abs(float(want)))
    # property test: 1,000 random inputs against an exact-arithmetic oracle
    rng = random.Random(20_240_601)
    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(0.0, 110_000.0)
        d = rng.uniform(0.01, 1440.0)
        f = rng.uniform(0.25, 1.06)
        energy = compute_energy(p, d)
        co2 = compute_co2(energy, EmissionConfig(factor_kg_per_kwh=f))
        oracle_e = Fraction(p) * Fraction(d) / 60000
        oracle_c = oracle_e * Fraction(f)
        for got, want in ((energy, oracle_e), (co2, oracle_c)):
            rel = abs(got - float(want)) / max(1.0, abs(float(want)))
            worst = max(worst, rel)
            ok &= rel <= 1e-9
    record(2, "formula fidelity", ok, f"1000 random inputs, worst rel err {worst:.2e}")


# -- criterion 3: conservation ------------------------------------------------


def test_criterion_3_conservation(many_days):
    ok = True
    worst = 0.0
    for config, result in many_days:
        ok &= result.flagged_minutes == 0 and result.missing_windows == []
        # per-phase energy straight from the collector CSVs
        per_phase = 0.0
        for root in config.collector_roots:
            for path in sorted((root / config.date).glob("SEM*.csv")):
                for rec in collector.read_day_csv(path):
                    if rec.sample_count > 0:
                        per_phase += rec.avg_active_power / 60000.0
        # plant energy from the aggregates committed on chain
        ledger = pipeline.open_ledger(config)
        plant = 0.0
        for raw in ledger.state_items(f"batch/{config.producer}/").values():
            for agg in json.loads(raw.decode())["aggregates"]:
                plant += agg["total_power"] / 60000.0
        rel = abs(plant - per_phase) / max(1.0, abs(per_phase))
        worst = max(worst, rel)
        ok &= rel <= 1e-6
    record(3, "conservation", ok, f"10 seeds, worst rel err {worst:.2e}")


# -- criterion 4: QoS idempotency ---------------------------------------------


def test_criterion_4_qos_idempotency(many_days, tmp_path):
    ok = True
    for config, _ in many_days[:5]:
        faults = metersim.FaultConfig(
            duplicate_probability=0.1,
            reorder_jitter_max=30.0,
            rng_seed=config.seed + 1,
        )
        messages = metersim.run_day(config.fleet, config.date, faults)
        faulted_root = tmp_path / f"faulted-{config.seed}"
        collectors = {
            cid: collector.Collector(
                collector.CollectorConfig(
                    collector_id=cid,
                    assigned_meters=frozenset(meters),
                    output_root=faulted_root,
                )
            )
            for cid, meters in config.fleet.assignments.items()
        }
        route = {m: collectors[cid] for cid, ms in config.fleet.assignments.items() for m in ms}
        duplicates = 0
        for msg in messages:
            if route[msg.reading.meter_id].ingest(msg) == collector.DUPLICATE:
                duplicates += 1
        ok &= duplicates > 0  # the fault injection actually exercised dedup
        for cid, inst in collectors.items():
            inst.write_day_csv(config.date, inst.close_day(config.date))
            for path in sorted((faulted_root / cid / config.date).glob("SEM*.csv")):
                clean = config.collectors_root / cid / config.date / path.name
                ok &= path.read_bytes() == clean.read_bytes()
    record(4, "QoS idempotency", ok, "5 seeds, faulted CSVs byte-identical to fault-free")


# -- criterion 5: tamper detection --------------------------------------------


def test_criterion_5_tamper_detection(sim_day, many_days):
    config, _ = sim_day
    ledger = pipeline.open_ledger(config)
    replay = audit.replay_day(config.collector_roots, config.date, RULES, config.producer)

    baseline = audit.replay_verify(
        config.collector_roots, ledger, config.date, config.producer, RULES, replay=replay
    )
    ok = baseline.passed

    rng = random.Random(555)
    # 100 randomized single-byte mutations of committed block files
    chain_detected = 0
    block_paths = sorted(ledger.blocks_dir.glob("*.json"))
    for _ in range(100):
        path = rng.choice(block_paths)
        original = path.read_bytes()
        mutated = bytearray(original)
        mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(mutated))
        try:
            report = audit.replay_verify(
                config.collector_roots, ledger, config.date, config.producer, RULES, replay=replay
            )
            if not report.passed:
                chain_detected += 1
        finally:
            path.write_bytes(original)
    ok &= chain_detected == 100

    # 100 randomized single-field mutations of collector CSVs
    csv_paths = [
        p
        for root in config.collector_roots
        for p in sorted((root / config.date).glob("SEM*.csv"))
    ]
    csv_detected = 0
    for _ in range(100):
        path = rng.choice(csv_paths)
        original = path.read_bytes()
        lines = original.decode().splitlines()
        row = rng.randrange(1, len(lines))
        cells = lines[row].split(",")
        field = rng.choice(("power", "voltage", "frequency", "samples"))
        if field == "power":
            cells[3] = format(float(cells[3]) + rng.uniform(1.0, 100.0), ".3f")
        elif field == "voltage":
            cells[4] = format(float(cells[4]) + rng.uniform(1.0, 5.0), ".3f")
        elif field == "frequency":
            cells[7] = format(float(cells[7]) + rng.uniform(0.05, 0.4), ".3f")
        else:  # drop the phase-minute entirely
            cells[3:9] = [""] * 6
            cells[9] = "0"
        lines[row] = ",".join(cells)
        path.write_bytes(("\n".join(lines) + "\n").encode())
        try:
            report = audit.replay_verify(
                config.collector_roots, ledger, config.date, config.producer, RULES
            )
            if not report.passed:
                csv_detected += 1
        finally:
            path.write_bytes(original)
    ok &= csv_detected == 100

    # zero false alarms across ten independent clean runs
    false_alarms = 0
    for clean_config, _ in many_days:
        clean_ledger = pipeline.open_ledger(clean_config)
        report = audit.replay_verify(
            clean_config.collector_roots,
            clean_ledger,
            clean_config.date,
            clean_config.producer,
            RULES,
        )
        if not report.passed:
            false_alarms += 1
    ok &= false_alarms == 0

    record(
        5,
        "tamper detection",
        ok,
        f"chain {chain_detected}/100, csv {csv_detected}/100, false alarms {false_alarms}/10",
    )


# -- criterion 6: chaincode rejection -----------------------------------------


def _batch_dict(window, date="2025-06-01", producer="plant-1", voltage=230.0):
    start = parse_date(date) + window * 300
    return {
        "batch_id": f"{producer}-{date.replace('-', '')}-{window:03d}",
        "window_start": format_ts(start),
        "window_end": format_ts(start + 300),
        "producer_id": producer,
        "schema_version": 1,
        "aggregates": [
            {
                "minute_start": format_ts(start + 60 * i),
                "total_power": 24000.0,
                "avg_voltage": voltage,
                "avg_frequency": 50.0,
                "phase_count": 24,
                "quality": "OK",
                "flags": [],
            }
            for i in range(5)
        ],
    }


MEMBERS = (make_identity("plant-1", Role.PRODUCER), make_identity("certifier-1", Role.CERTIFIER))


def _fresh_ledger(tmp_path, name="chain"):
    return Ledger(tmp_path / name, CreditContract(), str(CONTRACT_VERSION), MEMBERS)


def _submit(ledger, op, who="plant-1"):
    return ledger.get_transaction(ledger.submit_tx(canonical_json(op), who))


def test_criterion_6_chaincode_rejection(tmp_path):
    ledger = _fresh_ledger(tmp_path)
    ok = True

    good = _batch_dict(5)
    ok &= _submit(ledger, {"op": "submit_batch", "batch": good}).status == "VALID"

    # out-of-order window (behind the committed head)
    tx = _submit(ledger, {"op": "submit_batch", "batch": _batch_dict(2)})
    ok &= tx.status == "INVALID" and tx.reason == "timestamps"
    # duplicate batch_id
    key = "batch/plant-1/plant-1-20250601-005"
    before = len(ledger.get_history(key))
    tx = _submit(ledger, {"op": "submit_batch", "batch": good})
    ok &= tx.status == "INVALID" and tx.reason == "duplicate"
    ok &= len(ledger.get_history(key)) == before + 1  # invalid tx stays queryable
    ok &= ledger.get_transaction(tx.tx_id).reason == "duplicate"
    # out-of-range voltage
    tx = _submit(ledger, {"op": "submit_batch", "batch": _batch_dict(6, voltage=300.0)})
    ok &= tx.status == "INVALID" and tx.reason == "ranges"

    ledger.cut_all()
    ok &= ledger.verify_chain() is None
    record(6, "chaincode rejection", ok, "timestamps/duplicate/ranges all INVALID on-chain")


# -- criterion 7: lifecycle safety --------------------------------------------


def _mint_credits(ledger, count):
    """One credit per day via a single batch plus a missing-windows report."""
    serials = []
    base = parse_date("2025-03-01")
    for i in range(count):
        date = format_ts(base + i * 86400)[:10]
        batch = _batch_dict(0, date=date)
        assert _submit(ledger, {"op": "submit_batch", "batch": batch}).status == "VALID"
        missing = {
            "op": "report_missing",
            "producer": "plant-1",
            "date": date,
            "windows": list(range(1, WINDOWS_PER_DAY)),
        }
        assert _submit(ledger, missing).status == "VALID"
        tx = _submit(ledger, {"op": "accrue", "producer": "plant-1", "date": date})
        assert tx.status == "VALID", tx.reason
        serial = json.loads(ledger.query_state(f"accrual/plant-1/{date}").decode())["serial"]
        serials.append(serial)
    return serials


LEGAL = {
    "PENDING": {"VERIFIED"},
    "VERIFIED": {"ISSUED"},
    "ISSUED": {"SOLD", "RETIRED"},
    "SOLD": set(),
    "RETIRED": set(),
}


def test_criterion_7_lifecycle_safety(tmp_path):
    ledger = _fresh_ledger(tmp_path)
    serials = _mint_credits(ledger, 50)
    rng = random.Random(777)
    actions = [
        ("credit_verify", None),
        ("credit_issue", None),
        ("credit_transition", "SOLD"),
        ("credit_transition", "RETIRED"),
    ]
    actors = ["plant-1", "certifier-1"]
    observed = {s: ["PENDING"] for s in serials}
    ok = True
    for step in range(10_000):
        serial = rng.choice(serials)
        op_name, target = rng.choice(actions)
        op = {"op": op_name, "serial": serial}
        if target:
            op["target"] = target
        _submit(ledger, op, rng.choice(actors))
        state = json.loads(ledger.query_state(f"credit/{serial}").decode())["state"]
        if state != observed[serial][-1]:
            ok &= state in LEGAL[observed[serial][-1]]  # exactly one legal step
            observed[serial].append(state)
        if step % 1000 == 999:
            ledger.cut_all()
    ledger.cut_all()
    for serial, states in observed.items():
        ok &= not ({"SOLD", "RETIRED"} <= set(states))
    terminal = sum(states[-1] in ("SOLD", "RETIRED") for states in observed.values())
    record(
        7,
        "lifecycle safety",
        ok,
        f"10000 actions over 50 credits, {terminal} reached a terminal state",
    )


# -- criterion 8: replay equivalence ------------------------------------------


def test_criterion_8_replay_equivalence(tmp_path):
    ledger = _fresh_ledger(tmp_path)
    rng = random.Random(888)
    submitted = 0
    window = 0
    date_i = 0
    serials = []
    while submitted < 1200:
        roll = rng.random()
        if roll < 0.45:
            batch = _batch_dict(window % WINDOWS_PER_DAY,
                                date=format_ts(parse_date("2025-06-01") + (window // WINDOWS_PER_DAY) * 86400)[:10])
            if rng.random() < 0.2:  # sprinkle invalid variants
                mutator = rng.random()
                if mutator < 0.34:
                    batch["aggregates"][0]["avg_voltage"] = 400.0
                elif mutator < 0.67:
                    batch["window_end"] = batch["window_start"]
                else:
                    del batch["schema_version"]
            else:
                window += 1
            _submit(ledger, {"op": "submit_batch", "batch": batch})
        elif roll < 0.55:
            date = format_ts(parse_date("2025-09-01") + date_i * 86400)[:10]
            date_i += 1
            b = _batch_dict(0, date=date)
            _submit(ledger, {"op": "submit_batch", "batch": b})
            _submit(ledger, {"op": "report_missing", "producer": "plant-1", "date": date,
                             "windows": list(range(1, WINDOWS_PER_DAY))})
            tx = _submit(ledger, {"op": "accrue", "producer": "plant-1", "date": date})
            if tx.status == "VALID":
                serials.append(
                    json.loads(ledger.query_state(f"accrual/plant-1/{date}").decode())["serial"]
                )
            submitted += 2
        elif roll < 0.8 and serials:
            serial = rng.choice(serials)
            op_name, target = rng.choice(
                [("credit_verify", None), ("credit_issue", None),
                 ("credit_transition", "SOLD"), ("credit_transition", "RETIRED")]
            )
            op = {"op": op_name, "serial": serial}
            if target:
                op["target"] = target
            _submit(ledger, op, rng.choice(["plant-1", "certifier-1"]))
        elif roll < 0.9:
            _submit(ledger, {"op": "no_such_op", "x": rng.randrange(10)})
        else:
            ledger.submit_tx(b"\xff\x00 not json", "plant-1")  # unparseable payload
        submitted += 1
        if rng.random() < 0.05:
            ledger.cut_all()
    ledger.cut_all()
    ok = ledger.pending_count == 0 and submitted >= 1000
    live = ledger.state_digest()
    rebuilt = ledger.rebuilt_state_digest()
    ok &= live == rebuilt
    # a cold reopen from disk reaches the same state
    reopened = Ledger(ledger.root, CreditContract(), str(CONTRACT_VERSION), MEMBERS)
    ok &= reopened.state_digest() == live
    ok &= ledger.verify_chain() is None
    record(8, "replay equivalence", ok, f"{submitted} txs, rebuilt digest == live digest")


# -- non-normative microbenchmark ---------------------------------------------


def test_microbenchmark_commit_rate(tmp_path):
    ledger = _fresh_ledger(tmp_path)
    payloads = [
        canonical_json(
            {
                "op": "report_missing",
                "producer": "plant-1",
                "date": format_ts(parse_date("2025-01-01") + i * 86400)[:10],
                "windows": list(range(WINDOWS_PER_DAY)),
            }
        )
        for i in range(1000)
    ]
    started = time.perf_counter()
    for payload in payloads:
        ledger.submit_tx(payload, "plant-1")
    ledger.cut_all()
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0 and ledger.pending_count == 0
    record(
        "bench",
        "non-normative microbenchmark",
        ok,
        f"1000 txs committed in {elapsed:.2f}s",
    )
