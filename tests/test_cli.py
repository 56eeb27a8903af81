import json
import shutil
from dataclasses import asdict

import pytest

from carboncert import cli, metersim, pipeline
from carboncert import ledger as ledger_mod
from carboncert.aggregator import AnomalyRules
from carboncert.chaincode import CONTRACT_VERSION, CreditContract
from carboncert.ledger import Ledger, make_identity
from carboncert.model import EmissionConfig, Role, canonical_json


@pytest.fixture(scope="module")
def cli_home(tmp_path_factory):
    """One simulated day driven entirely through the CLI."""
    home = tmp_path_factory.mktemp("cli-home")
    rc = cli.main(["--home", str(home), "simulate", "--date", "2025-06-01", "--seed", "3"])
    assert rc == 0
    return home


def _run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_simulate_reports_volumes(cli_home, capsys):
    # re-running the pipeline home read-only: verify the first run's outputs
    assert (cli_home / "collectors" / "A" / "2025-06-01" / "SEM1.csv").exists()
    assert (cli_home / "chain" / "blocks" / "0.json").exists()
    rc, out, _ = _run(capsys, "--home", str(cli_home), "ledger", "verify")
    assert rc == 0
    assert out.startswith("chain OK, height 24")


def test_home_from_environment(cli_home, capsys, monkeypatch):
    monkeypatch.setenv("CARBON_LEDGER_HOME", str(cli_home))
    rc, out, _ = _run(capsys, "ledger", "verify")
    assert rc == 0 and "chain OK" in out


def test_credits_full_lifecycle(cli_home, capsys):
    rc, out, _ = _run(
        capsys, "--home", str(cli_home), "credits", "accrue",
        "--date", "2025-06-01", "--as", "plant-1",
    )
    assert rc == 0
    serial = out.split()[0]
    assert serial == "CC-plant-1-20250601-1"
    assert "state=PENDING" in out and "energy_kwh=" in out and "co2_kg=" in out

    rc, out, _ = _run(capsys, "--home", str(cli_home), "credits", "verify",
                      "--serial", serial, "--as", "certifier-1")
    assert rc == 0 and "state=VERIFIED" in out
    rc, out, _ = _run(capsys, "--home", str(cli_home), "credits", "issue",
                      "--serial", serial, "--as", "certifier-1")
    assert rc == 0 and "state=ISSUED" in out
    rc, out, _ = _run(capsys, "--home", str(cli_home), "credits", "retire",
                      "--serial", serial, "--as", "plant-1")
    assert rc == 0 and "state=RETIRED" in out


def test_credits_rejection_exits_one(cli_home, capsys):
    # selling a retired credit is an illegal transition
    rc, _, err = _run(capsys, "--home", str(cli_home), "credits", "sell",
                      "--serial", "CC-plant-1-20250601-1", "--as", "plant-1")
    assert rc == 1 and "illegal_transition" in err


def test_credits_unknown_identity_exits_one(cli_home, capsys):
    rc, _, err = _run(capsys, "--home", str(cli_home), "credits", "accrue",
                      "--date", "2025-06-01", "--as", "nobody")
    assert rc == 1 and "unknown identity" in err


def test_credits_missing_argument_exits_two(cli_home, capsys):
    rc, _, err = _run(capsys, "--home", str(cli_home), "credits", "accrue", "--as", "plant-1")
    assert rc == 2 and "--date" in err
    rc, _, err = _run(capsys, "--home", str(cli_home), "credits", "verify", "--as", "certifier-1")
    assert rc == 2 and "--serial" in err


def test_audit_pass(cli_home, capsys):
    rc, out, _ = _run(capsys, "--home", str(cli_home), "audit", "--date", "2025-06-01")
    assert rc == 0
    assert out.splitlines()[0] == "AUDIT PASS 2025-06-01"
    report = json.loads((cli_home / "reports" / "audit-2025-06-01.json").read_text())
    assert report["result"] == "PASS"


def test_audit_fail_after_tamper(cli_home, capsys):
    target = cli_home / "chain" / "blocks" / "2.json"
    original = target.read_bytes()
    try:
        mutated = bytearray(original)
        mutated[10] ^= 0x01
        target.write_bytes(bytes(mutated))
        rc, out, _ = _run(capsys, "--home", str(cli_home), "audit", "--date", "2025-06-01")
        assert rc == 1
        assert out.splitlines()[0] == "AUDIT FAIL 2025-06-01"
    finally:
        target.write_bytes(original)


def test_ledger_inspect_and_history(cli_home, capsys):
    rc, out, _ = _run(capsys, "--home", str(cli_home), "ledger", "inspect")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("block 0 txs=0")
    # genesis + 24 simulation blocks, plus one per credits command above
    assert len(lines) >= 25

    rc, out, _ = _run(capsys, "--home", str(cli_home), "ledger", "history",
                      "batch/plant-1/plant-1-20250601-000")
    assert rc == 0 and "status=VALID" in out

    rc, out, _ = _run(capsys, "--home", str(cli_home), "ledger", "history", "no/such/key")
    assert rc == 0 and "no transactions" in out


def test_usage_errors_exit_two(capsys):
    assert cli.main([]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["simulate", "--date", "not-a-date"]) == 2
    assert cli.main(["simulate", "--date", "2025-6-1"]) == 2
    assert cli.main(["credits", "accrue", "--date", "2025-06-1", "--as", "plant-1"]) == 2
    capsys.readouterr()


def test_bad_config_path_exits_one(tmp_path, capsys):
    rc = cli.main(["--home", str(tmp_path), "simulate", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"date": "2025-7-1"}))  # checked like --date, before any write
    rc = cli.main(["--home", str(tmp_path / "home"), "simulate", "--config", str(cfg)])
    assert rc == 1 and not (tmp_path / "home").exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "raw",
    [
        "[]",
        '{"faults": {"bogus": 1}}',
        '{"emission": {"factor_kg_per_kwh": "x"}}',
        '{"rules": {"voltage_range": 5}}',
        '{"seed": "abc"}',
        '{"faults": {"duplicate_probability": "x"}}',
        '{"date": 5}',
        '{"producer_id": 5}',
        # each of these used to run, silently dropping or bending the value
        '{"meterz": [2, 7]}',
        '{"rules": {"max_ramp_watt_per_minute": 100}}',
        '{"seed": 3.7}',
        '{"seed": true}',
        '{"seed": "5"}',
        '{"accuracy_band": true}',
        '{"profile": {"peak_plant_power": NaN}}',
        '{"faults": {"rng_seed": true}}',
    ],
)
@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_malformed_config_fails_with_one_line(tmp_path, capsys, raw, command):
    cfg = tmp_path / "run.json"
    cfg.write_text(raw)
    tail = ["--date", "2025-06-01"] if command == "audit" else []
    rc, out, err = _run(capsys, "--home", str(tmp_path / "home"), command, "--config", str(cfg), *tail)
    assert rc == 1 and out == ""
    assert err.startswith(f"error [{command}]: bad run configuration {cfg}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "home").exists()


# Refused fleets and runs, each with the whole message: the CLI tests below
# run every table through `simulate --config`, and
# test_the_python_constructors_refuse_what_simulate_refuses through
# FleetConfig and RunConfig themselves.
ROUTE_NO_METER = [
    ({"assignments": {"A": [9]}}, "assigned meters [9] are not in the fleet's meters"),
    ({"assignments": {"A": [1, 2], "B": [8, 9]}}, "assigned meters [9] are not in the fleet's meters"),
    ({"assignments": {"A": ["1"]}}, "assigned meters ['1'] are not in the fleet's meters"),
    ({"meters": [9]}, "the assignments route no meter of the fleet"),
    ({"assignments": {}}, "the assignments route no meter of the fleet"),
]
BAD_METERS = [
    ({"meters": [1, 9]}, "meter_id must be in 1..8, got 9"),
    ({"meters": [0, 2]}, "meter_id must be in 1..8, got 0"),
    ({"meters": [True, 2]}, "meter_id must be an integer: True"),
    ({"meters": [2.0, 7]}, "meter_id must be an integer: 2.0"),
    ({"meters": ["2", 7]}, "meter_id must be an integer: '2'"),
    ({"meters": [1, 1, 5]}, "meters [1, 1, 5] name a meter twice"),
    ({"meters": [1, 2], "assignments": {"A": [1, 2], "B": [2]}}, "the assignments name meters [2] more than once"),
    ({"assignments": {"A": [1, 3, 1], "B": [5]}}, "the assignments name meters [1] more than once"),
]
# each of these the Python constructors used to accept: the first two wrote a
# genesis block and then failed, the first leaving a home no run could use
CONSTRUCTOR_DEFECTS = [
    ({"certifier": "plant-1"}, "producer_id, certifier and auditor must be three different names"),
    ({"meters": [9], "assignments": {"A": [9]}}, "meter_id must be in 1..8, got 9"),
    ({"meters": [2], "assignments": {"A": [3]}}, "assigned meters [3] are not in the fleet's meters"),
    ({"accuracy_band": float("nan")}, "accuracy band must be a finite number: nan"),
    ({"seed": 1.5}, "seed must be an integer: 1.5"),
    ({"producer_id": 5}, "producer_id must be a string: 5"),
    ({"auditor": None}, "date, certifier and auditor must be strings"),
]


def _construct(home, raw):
    """The run ``raw`` describes, built by ``FleetConfig`` and ``RunConfig`` as
    Python callers build one, without ``load_run_config``."""
    run = {key: raw[key] for key in ("seed", "certifier", "auditor") if key in raw}
    fleet = {key: value for key, value in raw.items() if key not in run}
    if "meters" in fleet:
        fleet["meters"] = tuple(fleet["meters"])
    if "assignments" in fleet:
        fleet["assignments"] = {cid: tuple(meters) for cid, meters in fleet["assignments"].items()}
    return pipeline.RunConfig(home=home, fleet=metersim.FleetConfig(**fleet), **run)


def _assert_simulate_refuses(tmp_path, capsys, raw, why):
    """`simulate --config` of ``raw`` exits 1 with ``why`` and creates no home."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))
    rc, out, err = _run(capsys, "--home", str(tmp_path / "home"), "simulate", "--config", str(cfg))
    assert (rc, out, err) == (1, "", f"error [simulate]: bad run configuration {cfg}: {why}\n")
    assert not (tmp_path / "home").exists()


@pytest.mark.parametrize("raw, why", ROUTE_NO_METER + BAD_METERS + CONSTRUCTOR_DEFECTS)
def test_the_python_constructors_refuse_what_simulate_refuses(tmp_path, raw, why):
    with pytest.raises(ValueError) as exc:
        pipeline.run_simulation(_construct(tmp_path / "home", raw))
    assert str(exc.value) == why
    assert not (tmp_path / "home").exists()


@pytest.mark.parametrize("raw, why", CONSTRUCTOR_DEFECTS)
def test_simulate_refuses_what_the_python_constructors_refuse(tmp_path, capsys, raw, why):
    _assert_simulate_refuses(tmp_path, capsys, raw, why)


@pytest.mark.parametrize("raw", [{"seed": "abc"}, {"date": 5}])
def test_a_bad_file_value_is_refused_even_when_overridden(tmp_path, capsys, raw):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))
    argv = ["--home", str(tmp_path / "home"), "simulate", "--config", str(cfg), "--date", "2025-06-01", "--seed", "3"]
    rc, out, err = _run(capsys, *argv)
    assert (rc, out) == (1, "") and err.startswith(f"error [simulate]: bad run configuration {cfg}: ")
    assert not (tmp_path / "home").exists()


@pytest.mark.parametrize("raw, why", ROUTE_NO_METER)
def test_fleet_assignments_that_route_no_meter_are_refused(tmp_path, capsys, raw, why):
    # such a day used to commit 288 batches of empty minutes that no credit could accrue
    _assert_simulate_refuses(tmp_path, capsys, raw, why)


def test_a_config_without_assignments_publishes_only_its_meters(tmp_path, capsys):
    # the default collectors used to publish a CSV of empty minutes for each
    # meter outside the fleet: 8 files of 4,320 rows for meters 2 and 7
    homes = []
    for raw in ({"meters": [2, 7]}, {"meters": [2, 7], "assignments": {"A": [2], "B": [7]}}):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(raw))
        home = tmp_path / f"home-{len(homes)}"
        rc, out, err = _run(capsys, "--home", str(home), "simulate", "--config", str(cfg), "--seed", "3")
        assert (rc, out.splitlines()[0], err) == (0, "8640 / 1440 / 288", "")
        homes.append({p.relative_to(home).as_posix(): p.read_bytes() for p in sorted(home.rglob("*")) if p.is_file()})
    assert homes[0] == homes[1]
    assert [name for name in homes[0] if name.endswith(".csv")] == [
        "collectors/A/2025-06-01/SEM2.csv", "collectors/B/2025-06-01/SEM7.csv"
    ]


@pytest.mark.parametrize("raw, why", BAD_METERS)
def test_fleet_meters_outside_1_to_8_or_repeated_are_refused(tmp_path, capsys, raw, why):
    # a bad id, or a meter assigned to two collectors, used to fail only after
    # the genesis block and identities were written, and a repeated meter ran,
    # generating that meter twice
    _assert_simulate_refuses(tmp_path, capsys, raw, why)


@pytest.mark.parametrize(
    "raw, why",
    [
        ('{"rules": {"max_ramp_watts_per_minute": NaN}}', "ramp limit must be a finite number: nan"),
        ('{"rules": {"max_ramp_watts_per_minute": true}}', "ramp limit must be a finite number: True"),
        ('{"rules": {"voltage_range": [NaN, 253]}}', "voltage range must be a finite number: nan"),
        ('{"rules": {"voltage_range": ["200", "250"]}}', "voltage range must be a finite number: '200'"),
        ('{"rules": {"frequency_range": [true, 51]}}', "frequency range must be a finite number: True"),
        ('{"rules": {"phase_power_range": [-Infinity, 6000]}}', "phase power range must be a finite number: -inf"),
        ('{"emission": {"plant_capacity_watts": NaN}}', "plant capacity must be a finite number: nan"),
        ('{"emission": {"factor_kg_per_kwh": true}}', "emission factor must be a finite number: True"),
        ('{"faults": {"rng_seed": -1}}', "fault rng_seed must be >= 0: -1"),
        ('{"faults": {"duplicate_probability": true}}', "duplicate probability must be a finite number: True"),
        ('{"faults": {"reorder_jitter_max": Infinity}}', "reorder jitter must be a finite number: inf"),
    ],
)
def test_rule_and_emission_bounds_must_be_finite_numbers(tmp_path, capsys, raw, why):
    # each used to be accepted: a NaN ramp limit turned the RAMP rule off,
    # string bounds failed with a traceback after the CSVs were published, a
    # negative fault seed failed after the genesis block was written, and a
    # boolean probability or an infinite jitter ran
    cfg = tmp_path / "run.json"
    cfg.write_text(raw)
    rc, out, err = _run(capsys, "--home", str(tmp_path / "home"), "simulate", "--config", str(cfg))
    assert (rc, out, err) == (1, "", f"error [simulate]: bad run configuration {cfg}: {why}\n")
    assert not (tmp_path / "home").exists()


def test_rejected_batch_fails_with_one_line(tmp_path, capsys):
    # a daytime batch above the plant's capacity is INVALID ``ranges``
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"emission": {"plant_capacity_watts": 1000}, "meters": [2, 7]}))
    home = tmp_path / "home"
    rc, out, err = _run(capsys, "--home", str(home), "simulate", "--config", str(cfg))
    assert (rc, out, err) == (1, "", "error [simulate]: batch plant-1-20250601-074 rejected: ranges\n")
    assert [p.name for p in (home / "chain" / "blocks").iterdir()] == ["0.json"]  # genesis only


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 5, "date": "2025-07-01", "emission": {"factor_kg_per_kwh": 0.5}}))
    rc = cli.main(["--home", str(tmp_path / "home"), "simulate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "34560 / 1440 / 288"
    assert (tmp_path / "home" / "collectors" / "A" / "2025-07-01").is_dir()


def _copy_home(cli_home, tmp_path):
    home = tmp_path / "home"
    shutil.copytree(cli_home, home)
    return home


def test_torn_tip_block_fails_loudly(cli_home, tmp_path, capsys):
    home = _copy_home(cli_home, tmp_path)
    blocks = home / "chain" / "blocks"
    tip = max(int(p.stem) for p in blocks.glob("*.json"))
    path = blocks / f"{tip}.json"
    path.write_bytes(path.read_bytes()[:50])
    rc, _, err = _run(capsys, "--home", str(home), "credits", "accrue",
                      "--date", "2025-06-02", "--as", "plant-1")
    assert rc == 1 and f"chain damaged at height {tip}" in err
    assert not (blocks / f"{tip + 1}.json").exists()
    rc, out, _ = _run(capsys, "--home", str(home), "ledger", "verify")
    assert rc == 1 and out == f"chain BROKEN at height {tip}\n"


def test_a_cut_at_a_height_another_writer_took_exits_one(cli_home, tmp_path, capsys, monkeypatch):
    home = _copy_home(cli_home, tmp_path)
    blocks = home / "chain" / "blocks"
    taken = max(int(p.stem) for p in blocks.glob("*.json")) + 1
    open_ledger = pipeline.open_ledger

    def opened_before_another_writer_appends(config):
        ledger = open_ledger(config)
        other = open_ledger(config)
        other.submit_tx(canonical_json({"date": "2025-06-09", "op": "accrue", "producer": "plant-1"}), "plant-1")
        other.cut_all()
        return ledger

    monkeypatch.setattr(pipeline, "open_ledger", opened_before_another_writer_appends)
    rc, out, err = _run(capsys, "--home", str(home), "credits", "accrue", "--date", "2025-06-01", "--as", "plant-1")
    assert rc == 1 and out == ""
    assert err == (
        f"error [credits]: block {taken} already exists at {blocks / f'{taken}.json'}: "
        "another writer appended to the chain since it was opened; nothing was written\n"
    )
    monkeypatch.undo()
    rc, out, _ = _run(capsys, "--home", str(home), "ledger", "verify")
    assert rc == 0 and out.startswith(f"chain OK, height {taken},")


def test_simulate_on_damaged_chain_refuses_before_any_work(cli_home, tmp_path, capsys):
    home = _copy_home(cli_home, tmp_path)
    blocks = home / "chain" / "blocks"
    tip = max(int(p.stem) for p in blocks.glob("*.json"))
    path = blocks / f"{tip}.json"
    path.write_bytes(path.read_bytes()[:50])
    before = {p: p.read_bytes() for p in home.rglob("*") if p.is_file()}
    rc, out, err = _run(capsys, "--home", str(home), "simulate", "--date", "2025-06-02", "--seed", "3")
    assert rc == 1 and out == "" and f"chain damaged at height {tip}" in err
    assert not list((home / "collectors").glob("*/2025-06-02/*.csv"))
    assert {p: p.read_bytes() for p in home.rglob("*") if p.is_file()} == before


def test_inspect_of_a_chain_torn_at_the_tip_lists_the_blocks_below_and_fails(cli_home, tmp_path, capsys):
    home = _copy_home(cli_home, tmp_path)
    blocks = home / "chain" / "blocks"
    tip = max(int(p.stem) for p in blocks.glob("*.json"))
    path = blocks / f"{tip}.json"
    path.write_bytes(path.read_bytes()[:50])
    rc, out, err = _run(capsys, "--home", str(home), "ledger", "inspect")
    assert rc == 1 and [line.split()[1] for line in out.splitlines()] == [str(h) for h in range(tip)]
    assert err == f"error [ledger]: chain damaged at height {tip}: block file missing or unreadable\n"


def test_history_of_a_chain_torn_below_the_tip_lists_what_the_blocks_below_give_and_fails(
    cli_home, tmp_path, capsys
):
    # history used to print only the loaded blocks' part, or "no transactions touched", and exit 0
    home = _copy_home(cli_home, tmp_path)
    blocks = home / "chain" / "blocks"
    loaded = {
        f"seq={tx['sequence']}" for h in range(1, 5) for tx in json.loads((blocks / f"{h}.json").read_bytes())["transactions"]
    }
    rc, intact, _ = _run(capsys, "--home", str(home), "ledger", "history", "head/plant-1")
    assert rc == 0
    (blocks / "5.json").write_bytes((blocks / "5.json").read_bytes()[:100])
    damaged = "error [ledger]: chain damaged at height 5: block file missing or unreadable\n"
    rc, out, err = _run(capsys, "--home", str(home), "ledger", "history", "head/plant-1")
    below = [line for line in intact.splitlines() if line.split()[1] in loaded]
    assert rc == 1 and out.splitlines() == below and err == damaged and below
    key = "batch/plant-1/plant-1-20250601-287"  # in the day's last block
    rc, out, err = _run(capsys, "--home", str(home), "ledger", "history", key)
    assert rc == 1 and out == f"no transactions touched {key!r}\n" and err == damaged


def test_torn_genesis_block_fails_without_traceback(cli_home, tmp_path, capsys):
    home = _copy_home(cli_home, tmp_path)
    genesis = home / "chain" / "blocks" / "0.json"
    genesis.write_bytes(genesis.read_bytes()[:20])
    rc, out, _ = _run(capsys, "--home", str(home), "ledger", "verify")
    assert rc == 1 and out == "chain BROKEN at height 0\n"
    rc, out, _ = _run(capsys, "--home", str(home), "audit", "--date", "2025-06-01")
    assert rc == 1 and out.splitlines()[0] == "AUDIT FAIL 2025-06-01"
    assert genesis.read_bytes() == (cli_home / "chain" / "blocks" / "0.json").read_bytes()[:20]


@pytest.mark.parametrize("field", ["block_hash", "prev_hash"])
def test_a_genesis_hash_that_is_not_text_fails_without_traceback(cli_home, tmp_path, capsys, field):
    # inspect used to stop with a TypeError slicing a null block_hash
    home = _copy_home(cli_home, tmp_path)
    genesis = home / "chain" / "blocks" / "0.json"
    raw = genesis.read_bytes()
    genesis.write_bytes(raw.replace(f'"{json.loads(raw)[field]}"'.encode(), b"null", 1))
    rc, out, err = _run(capsys, "--home", str(home), "ledger", "inspect")
    # no block below an unreadable genesis is loaded; the damage is reported, not an empty chain
    assert (rc, out, err) == (1, "", "error [ledger]: chain damaged at height 0: block file missing or unreadable\n")
    rc, out, _ = _run(capsys, "--home", str(home), "ledger", "verify")
    assert (rc, out) == (1, "chain BROKEN at height 0\n")


@pytest.mark.parametrize(
    "cell, text",
    [
        (0, "2025-6-01T00:01:00Z"),  # a respelling of the minute the line above parsed
        (9, "4x"),
        (3, ""),  # no power in a row with samples
        (7, "50.\udcff00"),  # written as the byte 0xff, which is not UTF-8
    ],
    ids=["respelled_timestamp", "garbled_count", "empty_power", "not_utf8"],
)
def test_audit_of_an_unparseable_csv_fails_with_a_report(cli_home, tmp_path, capsys, cell, text):
    home = _copy_home(cli_home, tmp_path)
    path = home / "collectors" / "A" / "2025-06-01" / "SEM1.csv"
    lines = path.read_text().split("\n")
    cells = lines[5].split(",")  # line 6: minute 00:01, phase 2
    assert cells[0] == "2025-06-01T00:01:00Z" and int(cells[9]) > 0
    cells[cell] = text
    lines[5] = ",".join(cells)
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    rc, out, err = _run(capsys, "--home", str(home), "audit", "--date", "2025-06-01")
    assert rc == 1 and err == ""
    assert out.splitlines()[0] == "AUDIT FAIL 2025-06-01"
    assert f"UnreadableCsv: {path} line 6: " in out
    report = json.loads((home / "reports" / "audit-2025-06-01.json").read_text())
    assert report["result"] == "FAIL" and report["chain_ok"] is True
    assert report["notices"] == [line for line in out.splitlines() if line.startswith("UnreadableCsv")]


def test_audit_of_an_unreadable_csv_fails_with_a_report(cli_home, tmp_path, capsys):
    # a read error used to end the audit with "error [audit]" and no report; a
    # file without read permission cannot be shown while the tests run as root
    home = _copy_home(cli_home, tmp_path)
    path = home / "collectors" / "A" / "2025-06-01" / "SEM9.csv"
    path.mkdir()
    rc, out, err = _run(capsys, "--home", str(home), "audit", "--date", "2025-06-01")
    assert rc == 1 and err == ""
    assert out.splitlines()[0] == "AUDIT FAIL 2025-06-01"
    report = json.loads((home / "reports" / "audit-2025-06-01.json").read_text())
    assert report["result"] == "FAIL" and report["chain_ok"] is True
    assert report["notices"] == [f"UnreadableCsv: {path}: Is a directory"]


def test_same_date_rerun_keeps_audit_passing(cli_home, tmp_path, capsys):
    # a date the chain already holds is refused before anything is generated
    home = _copy_home(cli_home, tmp_path)
    before = {p: p.read_bytes() for p in home.rglob("*") if p.is_file()}
    rc, out, err = _run(capsys, "--home", str(home), "simulate", "--date", "2025-06-01", "--seed", "3")
    assert rc == 1 and out == "" and "2025-06-01 of plant-1 is already on the chain" in err
    assert {p: p.read_bytes() for p in home.rglob("*") if p.is_file()} == before
    rc, out, _ = _run(capsys, "--home", str(home), "audit", "--date", "2025-06-01")
    assert rc == 0 and out.splitlines()[0] == "AUDIT PASS 2025-06-01"


def _tree(home):
    return {p: p.read_bytes() for p in sorted(home.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def factor_home(tmp_path_factory):
    """A day simulated under emission factor 0.5, and that run's configuration."""
    root = tmp_path_factory.mktemp("factor-home")
    cfg = root / "run.json"
    cfg.write_text(json.dumps({"meters": [2, 7], "emission": {"factor_kg_per_kwh": 0.5}}))
    assert cli.main(["--home", str(root / "home"), "simulate", "--config", str(cfg), "--seed", "3"]) == 0
    return root / "home", cfg


def test_chain_records_the_emission_factor_its_credits_use(factor_home, tmp_path, capsys):
    # credits and ledger used to re-execute under whatever --config each reader
    # passed: accrue under factor 0.5 printed one co2_kg, verify without it another
    home = _copy_home(factor_home[0], tmp_path)
    rc, accrued, _ = _run(capsys, "--home", str(home), "credits", "accrue", "--date", "2025-06-01", "--as", "plant-1")
    assert rc == 0
    serial = accrued.split()[0]
    rc, verified, _ = _run(capsys, "--home", str(home), "credits", "verify", "--serial", serial, "--as", "certifier-1")
    assert rc == 0
    co2 = [line.split("co2_kg=")[1] for line in (accrued, verified)]
    assert co2[0] == co2[1]
    energy = float(accrued.split("energy_kwh=")[1].split()[0])
    assert float(co2[0]) == pytest.approx(0.5 * energy, abs=1e-3)
    rc, out, _ = _run(capsys, "--home", str(home), "ledger", "verify")
    assert rc == 0 and out.startswith("chain OK")
    rc, out, _ = _run(capsys, "--home", str(home), "audit", "--date", "2025-06-01", "--config", str(factor_home[1]))
    assert rc == 0 and out.splitlines()[0] == "AUDIT PASS 2025-06-01"


@pytest.mark.parametrize(
    "argv",
    [
        ["credits", "accrue", "--date", "2025-06-01", "--as", "plant-1", "--config", "run.json"],
        ["ledger", "--config", "run.json", "verify"],
        ["ledger", "verify", "--config", "run.json"],
    ],
)
def test_credits_and_ledger_take_no_config(tmp_path, capsys, argv):
    rc, _, err = _run(capsys, "--home", str(tmp_path / "home"), *argv)
    assert rc == 2 and "error:" in err
    assert not (tmp_path / "home").exists()


@pytest.mark.parametrize(
    "raw, what",
    [
        ({"meters": [2, 7]}, "emission"),
        ({"meters": [2, 7], "emission": {"factor_kg_per_kwh": 0.5000001}}, "emission"),
        ({"meters": [2, 7], "emission": {"factor_kg_per_kwh": 0.5}, "rules": {"voltage_range": [200, 260]}}, "rules"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_config_that_disagrees_with_the_chain_is_refused(factor_home, tmp_path, capsys, raw, what, command):
    home = factor_home[0]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))
    before = _tree(home)
    rc, out, err = _run(capsys, "--home", str(home), command, "--config", str(cfg), "--date", "2025-06-02")
    assert (rc, out) == (1, "") and err.count("\n") == 1
    assert err.startswith(f"error [{command}]: the run configuration disagrees with chain {home / 'chain'} on {what}: ")
    assert _tree(home) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["credits", "accrue", "--date", "2025-06-01", "--as", "plant-1"],
        ["audit", "--date", "2025-06-01"],
        ["ledger", "verify"],
        ["ledger", "inspect"],
    ],
)
def test_commands_other_than_simulate_need_a_chain(tmp_path, capsys, argv):
    # each used to write a genesis block into the empty home
    home = tmp_path / "home"
    rc, out, err = _run(capsys, "--home", str(home), *argv)
    assert (rc, out, err) == (1, "", f"error [{argv[0]}]: no chain at {home / 'chain'}\n")
    assert not home.exists()


def test_genesis_without_contract_parameters_is_refused(tmp_path, capsys):

    home = tmp_path / "home"
    # a genesis as written before it recorded parameters
    Ledger(home / "chain", CreditContract(), str(CONTRACT_VERSION), [])
    before = _tree(home)
    for argv in (["ledger", "verify"], ["credits", "accrue", "--date", "2025-06-01", "--as", "plant-1"],
                 ["simulate", "--date", "2025-06-01"]):
        rc, out, err = _run(capsys, "--home", str(home), *argv)
        assert (rc, out) == (1, "")
        assert err == (f"error [{argv[0]}]: chain {home / 'chain'} predates recorded contract parameters: "
                       "its genesis has none\n")
    assert _tree(home) == before


@pytest.mark.parametrize(
    "raw",
    [{"certifier": "plant-1"}, {"auditor": "certifier-1"}, {"producer_id": "auditor-1"}],
)
def test_role_names_must_differ(tmp_path, capsys, raw):
    # {"certifier": "plant-1"} used to register no certifier: no credit could ever be verified
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))
    rc, out, err = _run(capsys, "--home", str(tmp_path / "home"), "simulate", "--config", str(cfg))
    assert (rc, out) == (1, "")
    assert err == (f"error [simulate]: bad run configuration {cfg}: "
                   "producer_id, certifier and auditor must be three different names\n")
    assert not (tmp_path / "home").exists()


def test_a_name_registered_under_another_role_is_refused(tmp_path, capsys):
    # it used to be kept silently: certifier "auditor-1" stayed an AUDITOR and
    # every `credits verify --as auditor-1` was unauthorized
    home = tmp_path / "home"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"meters": [2, 7]}))
    assert _run(capsys, "--home", str(home), "simulate", "--config", str(cfg), "--date", "2025-06-01")[0] == 0
    before = _tree(home)
    cfg.write_text(json.dumps({"meters": [2, 7], "certifier": "auditor-1", "auditor": "certifier-1"}))
    rc, out, err = _run(capsys, "--home", str(home), "simulate", "--config", str(cfg), "--date", "2025-06-02")
    assert (rc, out) == (1, "")
    assert err == ("error [simulate]: identity auditor-1 is registered as AUDITOR; "
                   "the run configuration makes it CERTIFIER\n")
    assert _tree(home) == before


def test_a_planted_identities_file_admits_no_one(cli_home, tmp_path, capsys):
    # a CERTIFIER line added to chain/identities.json used to let mallory
    # verify and issue credits, and the chain still verified and audited clean
    home = _copy_home(cli_home, tmp_path)
    assert sorted(p.name for p in (home / "chain").iterdir()) == ["blocks", "writes"]
    members = [*pipeline.RunConfig(home=home).members, make_identity("mallory", Role.CERTIFIER)]
    (home / "chain" / "identities.json").write_text(
        json.dumps({i.name: {"role": i.role.value, "key_id": i.key_id} for i in members})
    )
    for action in ("verify", "issue"):
        rc, out, err = _run(capsys, "--home", str(home), "credits", action,
                            "--serial", "CC-plant-1-20250601-1", "--as", "mallory")
        assert (rc, out, err) == (1, "", "error: unknown identity 'mallory'\n")


def test_a_genesis_resealed_with_another_member_breaks_the_chain(cli_home, tmp_path, capsys):
    home = _copy_home(cli_home, tmp_path)
    path = home / "chain" / "blocks" / "0.json"
    genesis = ledger_mod.read_genesis(home / "chain")
    params = json.loads(genesis.params)
    params["identities"]["mallory"] = {"role": "CERTIFIER", "key_id": make_identity("mallory", Role.CERTIFIER).key_id}
    genesis.params = json.dumps(params, sort_keys=True)
    path.write_bytes(ledger_mod._seal(genesis))
    # the open finds block 1's prev_hash dangling: mallory may not act
    before = _tree(home)
    rc, out, err = _run(capsys, "--home", str(home), "credits", "verify", "--serial", "CC-plant-1-20250601-1",
                        "--as", "mallory")
    assert (rc, out) == (1, "")
    assert err.startswith("error [credits]: chain damaged at height 1: ") and err.count("\n") == 1
    assert _tree(home) == before
    rc, out, _ = _run(capsys, "--home", str(home), "ledger", "verify")
    assert (rc, out) == (1, "chain BROKEN at height 1\n")
    rc, out, _ = _run(capsys, "--home", str(home), "audit", "--date", "2025-06-01")
    assert rc == 1 and out.splitlines()[0] == "AUDIT FAIL 2025-06-01"


def test_audit_of_a_chain_resealed_with_a_payload_that_is_not_base64_writes_a_failed_report(
    cli_home, tmp_path, capsys, reseal_up_to_the_tip
):
    # a run of blocks resealed up to the tip, journals included, opens clean;
    # the batch the audit reads from block 1 cannot be decoded
    home = _copy_home(cli_home, tmp_path)
    def garble_first(content):
        tx = content["transactions"][0]
        tx["payload_b64"] = "!" + tx["payload_b64"][1:]

    reseal_up_to_the_tip(home / "chain", 1, garble_first)
    rc, out, err = _run(capsys, "--home", str(home), "audit", "--date", "2025-06-01")
    assert rc == 1 and err == ""
    lines = out.splitlines()
    assert lines[:2] == ["AUDIT FAIL 2025-06-01", "chain inconsistent at height 1"]
    assert lines[2].startswith("ChainDamaged: chain damaged at height 1: tx ")
    report = json.loads((home / "reports" / "audit-2025-06-01.json").read_text())
    assert (report["result"], report["first_bad_height"]) == ("FAIL", 1)


def test_genesis_without_identities_is_refused(tmp_path, capsys):
    home = tmp_path / "home"
    # a genesis as written before it recorded the chain's members
    params = json.dumps({"emission": asdict(EmissionConfig()), "rules": asdict(AnomalyRules())}, sort_keys=True)
    Ledger(home / "chain", CreditContract(), str(CONTRACT_VERSION), [], params)
    before = _tree(home)
    for argv in (["simulate", "--date", "2025-06-01"], ["credits", "accrue", "--date", "2025-06-01", "--as", "plant-1"],
                 ["ledger", "verify"], ["audit", "--date", "2025-06-01"]):
        rc, out, err = _run(capsys, "--home", str(home), *argv)
        assert (rc, out) == (1, "")
        assert err == f"error [{argv[0]}]: chain {home / 'chain'} predates recorded identities: its genesis has none\n"
    assert _tree(home) == before


def test_a_config_naming_a_certifier_the_chain_lacks_is_refused(factor_home, tmp_path, capsys):
    # members are fixed when the chain is created: simulate used to register
    # whatever certifier a later config named
    home = factor_home[0]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"meters": [2, 7], "emission": {"factor_kg_per_kwh": 0.5}, "certifier": "mallory"}))
    before = _tree(home)
    rc, out, err = _run(capsys, "--home", str(home), "simulate", "--config", str(cfg), "--date", "2025-06-02")
    assert (rc, out) == (1, "")
    assert err == f"error [simulate]: identity mallory is not a member of chain {home / 'chain'}\n"
    assert _tree(home) == before
