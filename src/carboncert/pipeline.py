"""End-to-end orchestration: simulate -> collect -> aggregate -> commit.

The data root (``CARBON_LEDGER_HOME`` or --home) is laid out as:

    collectors/<A|B>/<date>/SEM<k>.csv   collector output
    aggregator/anomalies-<date>.jsonl    quarantine sidecar
    chain/                               ledger emulation (blocks, write-set journals, savepoints)
    reports/                             audit reports

The chain's genesis block records the contract's parameters, its emission
configuration and anomaly rules, and the members who may act on the chain,
fixed when it is created: see ``open_ledger``.

A ``RunConfig`` that exists is valid: it and its ``model.FleetConfig``
refuse a bad run when they are built, so a refused run writes nothing, and
``load_run_config`` only reads a JSON file into them.

The telemetry layers, ``metersim``, ``collector`` and ``aggregator`` (and
numpy with them), are imported by ``run_simulation`` and ``run_collector``,
which run them; the run configuration's types are ``model``'s. Opening the
chain and checking a configuration against it loads only ``model``,
``ledger`` and ``chaincode``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple

from .chaincode import CONTRACT_VERSION, CreditContract, day_on_chain
from .ledger import Ledger, NoChain, make_identity, read_genesis
from .model import (
    AnomalyRules,
    EmissionConfig,
    FaultConfig,
    FleetConfig,
    Forked,
    Identity,
    Role,
    parse_date,
    usable_cpus,
    whole_number,
)

# the keys of a run configuration beside the fleet's (FleetConfig.from_dict)
_RUN_KEYS = ("date", "seed", "certifier", "auditor", "faults", "rules", "emission")


class DateCommitted(ValueError):
    """The chain already holds batches or a missing-window report of the date."""


@dataclass
class RunConfig:
    home: Path
    date: str = "2025-06-01"
    seed: int = 0
    fleet: FleetConfig = field(default_factory=FleetConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    rules: AnomalyRules = field(default_factory=AnomalyRules)
    emission: EmissionConfig = field(default_factory=EmissionConfig)
    certifier: str = "certifier-1"
    auditor: str = "auditor-1"

    def __post_init__(self):
        self.home = Path(self.home)
        if not all(isinstance(name, str) for name in (self.date, self.certifier, self.auditor)):
            raise ValueError("date, certifier and auditor must be strings")
        whole_number(self.seed, "seed")
        self.fleet = replace(self.fleet, seed=self.seed)  # the caller's fleet keeps its own seed
        if len({self.producer, self.certifier, self.auditor}) < 3:
            raise ValueError("producer_id, certifier and auditor must be three different names")

    @property
    def producer(self) -> str:
        return self.fleet.producer_id

    @property
    def members(self) -> List[Identity]:
        """The producer, certifier and auditor this config names."""
        roles = ((self.producer, Role.PRODUCER), (self.certifier, Role.CERTIFIER), (self.auditor, Role.AUDITOR))
        return [make_identity(name, role) for name, role in roles]

    @property
    def collectors_root(self) -> Path:
        return self.home / "collectors"

    @property
    def collector_roots(self) -> List[Path]:
        return [self.collectors_root / cid for cid in sorted(self.fleet.assignments)]

    @property
    def chain_root(self) -> Path:
        return self.home / "chain"

    @property
    def aggregator_dir(self) -> Path:
        return self.home / "aggregator"

    @property
    def reports_dir(self) -> Path:
        return self.home / "reports"


def load_run_config(
    path: Optional[str],
    home: Path,
    date: Optional[str] = None,
    seed: Optional[int] = None,
) -> RunConfig:
    """The run configuration from the JSON file at ``path`` (defaults without one);
    ``date`` and ``seed`` override the file's. A file that is not such a
    configuration raises ``ValueError`` naming it."""
    raw: dict = {}
    try:
        if path:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError("not a JSON object")
        config = RunConfig(
            home=home,
            fleet=FleetConfig.from_dict({k: v for k, v in raw.items() if k not in _RUN_KEYS}),
            faults=FaultConfig(**raw.get("faults", {})),
            rules=AnomalyRules.from_dict(raw.get("rules", {})),
            emission=EmissionConfig(**raw.get("emission", {})),
            **{key: raw[key] for key in ("date", "seed", "certifier", "auditor") if key in raw},
        )
        # the file is checked whole, then overridden
        return replace(config, **{key: value for key, value in (("date", date), ("seed", seed)) if value is not None})
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"bad run configuration {path}: {exc}") from exc


def chain_parameters(chain_root: Path) -> Optional[Tuple[EmissionConfig, AnomalyRules, List[Identity]]]:
    """The emission configuration, rules and members the genesis at
    ``chain_root`` records; None when the genesis file is missing or
    unreadable, so the chain opens damaged at height 0. Raises ``NoChain``
    where there is no chain, and ValueError for a genesis that records no
    parameters or no members, or unreadable ones."""
    genesis = read_genesis(chain_root)
    if genesis is None:
        return None
    if genesis.params is None:
        raise ValueError(f"chain {chain_root} predates recorded contract parameters: its genesis has none")
    try:
        raw = json.loads(genesis.params)
        members = [Identity(name, Role(m["role"]), m["key_id"]) for name, m in raw.get("identities", {}).items()]
        params = EmissionConfig(**raw["emission"]), AnomalyRules.from_dict(raw["rules"]), members
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"chain {chain_root}: unreadable contract parameters in genesis: {exc}") from exc
    if not members:
        raise ValueError(f"chain {chain_root} predates recorded identities: its genesis has none")
    return params


def open_ledger(config: RunConfig) -> Ledger:
    """The ledger at the config's chain root, with the contract and members its
    genesis records; where there is no chain, one is created with the config's
    emission, rules and members (``{name: {"role", "key_id"}}``), in plain
    JSON so that reals keep every digit (canonical JSON keeps three decimals)."""
    try:
        params = chain_parameters(config.chain_root)
    except NoChain:
        params = None
    emission, rules, members = params or (config.emission, config.rules, config.members)
    contract = CreditContract(emission=emission, rules=rules)
    record = {"emission": asdict(config.emission), "rules": asdict(config.rules)}
    record["identities"] = {i.name: {"role": i.role.value, "key_id": i.key_id} for i in config.members}
    text = json.dumps(record, sort_keys=True)
    return Ledger(config.chain_root, contract, str(CONTRACT_VERSION), members, text)


def check_agreement(config: RunConfig) -> None:
    """Refuse, with one line (ValueError), a config whose emission or rules
    differ from those the chain records; once it passes, the config's are the
    chain's. Raises NoChain, creating nothing, where there is no chain. A chain
    whose genesis is unreadable records nothing to compare; it opens damaged."""
    params = chain_parameters(config.chain_root)
    for what, ours, chains in zip(("emission", "rules"), (config.emission, config.rules), params or ()):
        if ours != chains:
            raise ValueError(
                f"the run configuration disagrees with chain {config.chain_root} on {what}: "
                f"the chain records {chains}"
            )


def bootstrap_identities(ledger: Ledger, config: RunConfig) -> None:
    """Refuse, with one line (ValueError), a config whose producer, certifier
    or auditor is not a member of the chain under that role. Members are
    fixed when the chain is created; nothing is written."""
    for wanted in config.members:
        known = ledger.identities.get(wanted.name)
        if known is None:
            raise ValueError(f"identity {wanted.name} is not a member of chain {config.chain_root}")
        if known.role != wanted.role:
            raise ValueError(f"identity {wanted.name} is registered as {known.role.value}; "
                             f"the run configuration makes it {wanted.role.value}")


@dataclass
class DayResult:
    date: str
    csv_rows: int
    aggregate_count: int
    batch_count: int
    flagged_minutes: int
    missing_windows: List[int]
    tip_hash: str
    csv_paths: List[Path]
    messages: int  # transport messages delivered
    accepted: int  # readings the collectors took, each once
    duplicates: int  # redeliveries of an accepted reading
    rejected: int  # messages for a meter no collector is assigned
    notices: List[str]  # aggregation notices: unreadable files, missing collectors


def run_collector(
    day: "metersim.DayStream", config: "col_mod.CollectorConfig", date: str
) -> Tuple[int, int, int, List[Path]]:
    """One collector's day: ingest its meters' telemetry from ``day`` one meter
    at a time, the collector holding each meter's readings until the close,
    then close the day one meter at a time and publish its CSVs. Returns
    (accepted, duplicates, CSV rows, CSV paths)."""
    from . import collector as col_mod

    instance = col_mod.Collector(config)
    accepted = duplicates = 0
    for meter_id in day.fleet.meters:
        if meter_id in config.assigned_meters:
            readings, delivery = day.meter(meter_id)
            counts = instance.ingest_columns(readings, delivery.index)
            del readings, delivery  # the messages go; the collector keeps the readings it took
            accepted += counts.accepted
            duplicates += counts.duplicates
    day = instance.close_day(date)  # lets go of the readings it held
    return accepted, duplicates, len(day.sample_count), instance.write_day_csv(date, day)


def run_simulation(config: RunConfig) -> DayResult:
    """Drive all four pipeline stages for one simulated day.

    The telemetry is generated and delivered one meter at a time
    (``metersim.DayStream``, one fault stream for the whole day). Each
    collector's day (``run_collector``) runs in a forked worker process
    (``model.Forked``), as many at once as this process may use CPUs;
    aggregation starts once every collector has published its CSVs. A worker
    that dies raises ``ChildProcessError`` naming the collectors whose worker
    died; an exception a worker raised is raised here. Call it from a process
    that runs no other thread: a fork copies no thread, and a lock another
    thread held stays locked in the worker.

    Refuses, before any CSV is published, a date that does not parse, a
    damaged chain, a config whose emission, rules or members differ from the
    chain's and a date the chain already holds."""
    from . import aggregator as agg_mod
    from . import collector as col_mod
    from . import metersim

    parse_date(config.date)
    ledger = open_ledger(config)
    ledger.check_appendable()
    check_agreement(config)
    if day_on_chain(ledger.state_view(), config.producer, config.date):
        raise DateCommitted(f"{config.date} of {config.producer} is already on the chain")
    bootstrap_identities(ledger, config)
    producer = ledger.get_identity(config.producer)

    day = metersim.DayStream(config.fleet, config.date, config.faults)
    waiting = [
        (cid, col_mod.CollectorConfig(cid, frozenset(meters), config.collectors_root))
        for cid, meters in sorted(config.fleet.assignments.items())
    ]
    workers, running = usable_cpus(), []
    days = {}  # collector id -> its worker's outcome (Forked.join)
    try:
        while waiting or running:
            if waiting and len(running) < workers:
                cid, collector = waiting.pop(0)
                running.append((cid, Forked(run_collector, day, collector, config.date)))
            else:
                cid, worker = running.pop(0)
                days[cid] = worker.join()
    finally:
        for _, worker in running:  # left running only by an exception here
            worker.stop()
    lost = [cid for cid, outcome in days.items() if outcome is None]
    if lost:
        raise ChildProcessError(
            f"a collector worker process ended abruptly: the day of collector{'s' * (len(lost) > 1)} "
            f"{', '.join(lost)} did not finish"
        )
    accepted = duplicates = csv_rows = 0
    csv_paths: List[Path] = []
    for finished, outcome in days.values():
        if not finished:
            raise outcome  # the worker's exception
        took, redelivered, rows, paths = outcome
        accepted, duplicates, csv_rows = accepted + took, duplicates + redelivered, csv_rows + rows
        csv_paths.extend(paths)

    summary = agg_mod.run_day_aggregation(
        date=config.date,
        collector_roots=config.collector_roots,
        rules=config.rules,
        producer=producer,
        client=ledger,
        out_dir=config.aggregator_dir,
    )
    ledger.cut_all()
    return DayResult(
        date=config.date,
        csv_rows=csv_rows,
        aggregate_count=summary.aggregate_count,
        batch_count=summary.batch_count,
        flagged_minutes=summary.flagged_minutes,
        missing_windows=summary.missing_windows,
        tip_hash=ledger.tip_hash,
        csv_paths=csv_paths,
        messages=day.messages,
        accepted=accepted,
        duplicates=duplicates,
        rejected=day.messages - accepted - duplicates,
        notices=summary.notices,
    )
