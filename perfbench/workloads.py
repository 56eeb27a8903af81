"""The certification cycle and the three workloads that run it.

One cycle certifies one date: the day's input becomes committed blocks,
the day's credit goes accrue -> verify -> issue -> retire, and an
independent audit passes. Every step is driven through the public
functions of ``carboncert.pipeline``, ``metersim``, ``collector``,
``aggregator``, ``ledger``, ``chaincode`` and ``audit``, the way the
``carboncert`` CLI drives them: each credit step and the audit start with a
cold ``pipeline.open_ledger``.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import random
import re
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from carboncert import aggregator, audit, collector, metersim, pipeline
from carboncert.model import canonical_json

from spans import Tracer

DAY_ROWS, DAY_AGGREGATES, DAY_BATCHES = 34_560, 1_440, 288
FAULTS = dict(duplicate_probability=0.1, drop_then_retry_probability=0.05, reorder_jitter_max=30.0)
FIRST_DAY = datetime.date(2025, 6, 1)
CHAIN_DAYS = 30
CHAIN_START = datetime.date(2025, 5, 1)

# (CLI action, submitting role, credit state after the step)
LIFECYCLE = (
    ("accrue", "producer", "PENDING"),
    ("verify", "certifier", "VERIFIED"),
    ("issue", "certifier", "ISSUED"),
    ("retire", "producer", "RETIRED"),
)
LIFECYCLE_ROLE = {action: role for action, role, _ in LIFECYCLE}
OPS_PER_CYCLE = 1 + len(LIFECYCLE) + 1  # commit, credit steps, audit


@dataclass
class CycleResult:
    fingerprint: dict
    failures: List[str] = field(default_factory=list)  # one entry per failed operation


def _date(day: datetime.date, offset: int) -> str:
    return (day + datetime.timedelta(days=offset)).isoformat()


def day_csvs(cfg: pipeline.RunConfig) -> List[Path]:
    return sorted(p for root in cfg.collector_roots for p in (root / cfg.date).glob("SEM*.csv"))


def open_ledger(cfg, tr: Tracer):
    with tr.layer("ledger.open"):
        ledger = pipeline.open_ledger(cfg)
    tr.count("ledger.open_height", ledger.height)
    return ledger


def publish_day(cfg, tr: Tracer) -> None:
    """Simulate, deliver, collect and publish one day's CSVs, stage by stage as
    ``pipeline.run_simulation`` does."""
    with tr.layer("metersim.run_day"):
        messages = metersim.run_day(cfg.fleet, cfg.date, cfg.faults)
    with tr.layer("collector.ingest"):
        collectors = {
            cid: collector.Collector(
                collector.CollectorConfig(
                    collector_id=cid,
                    assigned_meters=frozenset(meters),
                    output_root=cfg.collectors_root,
                )
            )
            for cid, meters in sorted(cfg.fleet.assignments.items())
        }
        route = {m: collectors[cid] for cid, meters in cfg.fleet.assignments.items() for m in meters}
        outcomes = [
            owner.ingest(msg)
            for msg in messages
            if (owner := route.get(msg.reading.meter_id)) is not None
        ]
    counts = Counter(outcomes)
    tr.count("metersim.messages", len(messages))
    tr.count("collector.accepted", counts[collector.ACCEPTED])
    tr.count("collector.duplicates", counts[collector.DUPLICATE])
    tr.count("collector.rejected", counts[collector.REJECTED] + len(messages) - len(outcomes))
    # Freeing a day's objects takes a measurable share of the day; the untraced
    # run pays it inside run_simulation, so the traced run times it too.
    with tr.layer("metersim.free"):
        del messages, outcomes
    for _, instance in sorted(collectors.items()):
        with tr.layer("collector.close"):
            records = instance.close_day(cfg.date)
        with tr.layer("collector.write"):
            paths = instance.write_day_csv(cfg.date, records)
        tr.count("collector.csv_bytes", sum(p.stat().st_size for p in paths))
    with tr.layer("collector.free"):
        del collectors, route, instance, records


def commit_aggregated(cfg, ledger, tr: Tracer):
    """``aggregator.run_day_aggregation`` + ``Ledger.cut_all`` over the published CSVs."""
    producer = ledger.get_identity(cfg.producer)
    with tr.layer("aggregator.run"):
        summary = aggregator.run_day_aggregation(
            date=cfg.date,
            collector_roots=cfg.collector_roots,
            rules=cfg.rules,
            producer=producer,
            client=tr.ledger(ledger),
            out_dir=cfg.aggregator_dir,
        )
    with tr.layer("ledger.cut"):
        ledger.cut_all()
    tr.count("aggregator.aggregates", summary.aggregate_count)
    tr.count("aggregator.flagged", summary.flagged_minutes)
    tr.count("aggregator.batches", summary.batch_count)
    return summary


def credit_payload(cfg, action: str, serial: Optional[str]) -> bytes:
    """The transaction ``carboncert credits <action>`` submits."""
    if action == "accrue":
        return canonical_json({"date": cfg.date, "op": "accrue", "producer": cfg.producer})
    return canonical_json({
        "verify": {"op": "credit_verify", "serial": serial},
        "issue": {"op": "credit_issue", "serial": serial},
        "retire": {"op": "credit_transition", "serial": serial, "target": "RETIRED"},
    }[action])


def submit_credit(cfg, ledger, action: str, serial: Optional[str]):
    """Submit one lifecycle step, cut it and read the credit back: (status, credit)."""
    submitter = cfg.producer if LIFECYCLE_ROLE[action] == "producer" else cfg.certifier
    identity = ledger.get_identity(submitter)
    tx_id = ledger.submit_tx(credit_payload(cfg, action, serial), identity.name)
    ledger.cut_all()
    tx = ledger.get_transaction(tx_id)
    if tx.status != "VALID":
        return tx.status, None
    if serial is None:
        serial = json.loads(ledger.query_state(f"accrual/{cfg.producer}/{cfg.date}").decode())["serial"]
    return tx.status, json.loads(ledger.query_state(f"credit/{serial}").decode())


def run_audit(cfg, tr: Tracer):
    """``carboncert audit``: cold open, replay and compare, emit the report.
    Returns (report, first line of the text report, the opened ledger)."""
    ledger = open_ledger(cfg, tr)
    chain = tr.ledger(ledger)
    if tr.layers:
        with tr.layer("audit.replay_day"):
            replay = audit.replay_day(cfg.collector_roots, cfg.date, cfg.rules, cfg.producer)
        with tr.layer("audit.compare"):
            report = audit.replay_verify(
                cfg.collector_roots, chain, cfg.date, cfg.producer, rules=cfg.rules, replay=replay
            )
    else:
        report = audit.replay_verify(
            csv_roots=cfg.collector_roots, chain=chain, date=cfg.date, producer=cfg.producer, rules=cfg.rules
        )
    with tr.layer("audit.emit"):
        _, txt_path = audit.emit_report(report, cfg.reports_dir)
        headline = txt_path.read_text(encoding="utf-8").splitlines()[0]
    tr.count("audit.mismatches", len(report.mismatches))
    return report, headline, ledger


class Workload:
    """Set-up, per-cycle input and commit for one workload; the cycle is shared."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = random.Random(seed)
        self.cycle_seeds: List[int] = []

    def seed_for(self, k: int) -> int:
        while len(self.cycle_seeds) <= k:
            self.cycle_seeds.append(self.rng.randrange(1, 2**31))
        return self.cycle_seeds[k]

    def setup(self, tr: Tracer) -> None:
        self.work.mkdir(parents=True)

    def run(self, k: int, variant: str, tr: Tracer) -> CycleResult:
        """One timed cycle; its input is prepared and its output checked untimed."""
        cfg, ledger, base_height = self.prepare(k, variant, tr)
        failures: List[str] = []
        credit, report, headline = None, None, ""
        tr.cycle = k
        try:
            with tr.span("cycle"):
                with tr.step("step.commit"):
                    aggregates, batches = self.commit(cfg, ledger, tr)
                serial = None
                for step, (action, _, state) in enumerate(LIFECYCLE):
                    with tr.step("step.credit"):
                        ledger = open_ledger(cfg, tr)
                        status, credit = submit_credit(cfg, tr.ledger(ledger), action, serial)
                    if status != "VALID" or credit is None or credit["state"] != state:
                        failures.append(f"{action}: {status}")
                        failures += ["not run"] * (len(LIFECYCLE) - step)
                        break
                    serial = credit["serial"]
                else:
                    with tr.step("step.audit"):
                        report, headline, ledger = run_audit(cfg, tr)
        finally:
            tr.cycle = None
        fingerprint, rows = self.fingerprint(cfg, ledger, credit, report)
        if (rows, aggregates, batches) != (DAY_ROWS, DAY_AGGREGATES, DAY_BATCHES):
            failures.append(f"commit: volumes {rows} / {aggregates} / {batches}")
        else:
            failures += self.check_commit(cfg, tr.counters.get(k, {}))
        if report is not None and not (report.passed and headline == f"AUDIT PASS {cfg.date}"):
            failures.append(f"audit: {headline}")
        tr.cycle = k
        self.count_after(ledger, base_height, rows, tr)
        tr.cycle = None
        shutil.rmtree(cfg.home, ignore_errors=True)
        return CycleResult(fingerprint, failures)

    def check_commit(self, cfg, counters) -> List[str]:
        return []

    @staticmethod
    def fingerprint(cfg, ledger, credit, report):
        """Deterministic outcome of a cycle; equal inputs must give equal fingerprints."""
        digest = hashlib.sha256()
        rows = 0
        for path in day_csvs(cfg):
            data = path.read_bytes()
            digest.update(path.relative_to(cfg.home).as_posix().encode() + b"\0" + data)
            rows += data.count(b"\n") - 1
        return {
            "date": cfg.date,
            "seed": cfg.seed,
            "csv_sha256": digest.hexdigest(),
            "tip_hash": ledger.tip_hash if ledger is not None else None,
            "energy_kwh": credit["energy_kwh"] if credit else None,
            "audit": None if report is None else ("PASS" if report.passed else "FAIL"),
        }, rows

    @staticmethod
    def count_after(ledger, base_height, rows, tr: Tracer):
        """Ledger and audit counts of the cycle, read after its timed part."""
        if not tr.layers or ledger is None:
            return
        new = [b for b in ledger.blocks() if b.height > base_height]
        tr.count("ledger.blocks", len(new))
        tr.count("ledger.block_bytes", sum((ledger.blocks_dir / f"{b.height}.json").stat().st_size for b in new))
        invalid = Counter(t.reason for b in new for t in b.transactions if t.status != "VALID")
        tr.count("ledger.invalid", sum(invalid.values()))
        for reason, n in invalid.items():
            tr.count(f"ledger.invalid.{reason}", n)
        tr.count("ledger.state_keys", len(ledger.state_items()))
        tr.count("audit.rows", rows)


class DayWorkload(Workload):
    """A fresh data root per cycle, so the ledger stays one day long."""

    def __init__(self, work: Path, seed: int, faulted: bool):
        super().__init__(work, seed)
        self.faulted = faulted

    def prepare(self, k: int, variant: str, tr: Tracer):
        seed = self.seed_for(k)
        faults = metersim.FaultConfig(**FAULTS, rng_seed=seed) if self.faulted else metersim.FaultConfig()
        cfg = pipeline.RunConfig(home=self.work / f"c{k}{variant}", date=_date(FIRST_DAY, k), seed=seed, faults=faults)
        return cfg, None, 0

    def commit(self, cfg, ledger, tr: Tracer):
        if not tr.layers:
            result = pipeline.run_simulation(cfg)
            return result.aggregate_count, result.batch_count
        # run_simulation's stages, one span each
        ledger = open_ledger(cfg, tr)
        with tr.layer("ledger.identities"):
            pipeline.bootstrap_identities(ledger, cfg)
        publish_day(cfg, tr)
        summary = commit_aggregated(cfg, ledger, tr)
        return summary.aggregate_count, summary.batch_count

    def check_commit(self, cfg, counters) -> List[str]:
        # Every reading is accepted exactly once: the CSV sample counts add up to
        # the readings scheduled, so every other message was a duplicate. The
        # traced run counts the collector's outcomes and checks that directly.
        accepted = sum(
            int(line.rsplit(b",", 1)[1])
            for path in day_csvs(cfg)
            for line in path.read_bytes().splitlines()[1:]
        )
        readings = 3 * sum(len(metersim.meter_sample_times(cfg.fleet, m, cfg.date)) for m in cfg.fleet.meters)
        if accepted != readings:
            return [f"commit: accepted {accepted} of {readings} readings"]
        if counters:
            duplicates, messages = sum(counters["collector.duplicates"]), sum(counters["metersim.messages"])
            if duplicates != messages - readings or sum(counters["metersim.readings"]) != readings:
                return [f"commit: {duplicates} duplicates in {messages} messages of {readings} readings"]
        return []


class ChainWorkload(Workload):
    """Every cycle starts from the same 30-day chain and commits one more day."""

    def setup(self, tr: Tracer) -> None:
        """Simulate one source day, then commit 30 certified days to one chain.

        Day 0 is aggregated from its CSVs. The aggregator is a pure function of
        the CSV bytes, in which the date appears only in timestamps, so days
        1-29 commit day 0's transactions re-dated the same way their CSVs are,
        without aggregating the same values 29 more times.
        """
        super().setup(tr)
        tr.cycle = "setup"
        try:
            seed = self.seed_for(0)
            self.source = pipeline.RunConfig(home=self.work / "source", date=_date(CHAIN_START, 0), seed=seed)
            publish_day(self.source, tr)
            base = pipeline.RunConfig(home=self.work / "base", date=self.source.date, seed=seed)
            ledger = open_ledger(base, tr)
            pipeline.bootstrap_identities(ledger, base)
            recorder = _Recorder(ledger)
            self.deliver(base)
            commit_aggregated(base, recorder, tr)
            self.certify_live(base, ledger)
            for day in range(1, CHAIN_DAYS):
                base.date = _date(CHAIN_START, day)
                self.deliver(base)
                for payload in recorder.payloads:
                    tx_id = ledger.submit_tx(self.redate(payload, base.date), base.producer)
                    if ledger.get_transaction(tx_id).status != "VALID":
                        raise RuntimeError(f"set-up {base.date}: {ledger.get_transaction(tx_id).reason}")
                aggregator.mark_processed(day_csvs(base))
                sidecar = f"anomalies-{self.source.date}.jsonl"
                (base.aggregator_dir / sidecar.replace(self.source.date, base.date)).write_bytes(
                    self.redate((base.aggregator_dir / sidecar).read_bytes(), base.date)
                )
                ledger.cut_all()
                self.certify_live(base, ledger)
        finally:
            tr.cycle = None
        self.base_height = ledger.height
        self.snapshot = self.work / "snapshot"
        self._copy(base.home, self.snapshot)
        # The first untraced cycle commits into the ledger set-up built; every
        # other cycle starts from a copy and opens the chain before it starts.
        self.live = (base.home, ledger) if not tr.layers else None

    @staticmethod
    def _copy(src: Path, dst: Path) -> None:
        # Published CSVs are never rewritten in place, so copies can share them.
        shutil.copytree(
            src, dst, copy_function=lambda s, d: os.link(s, d) if s.endswith(".csv") else shutil.copy2(s, d)
        )

    def redate(self, data: bytes, date: str) -> bytes:
        """Move the source day's CSV or payload bytes to another date; the last
        window of a day ends at the next day's midnight, which moves along."""
        old, new = datetime.date.fromisoformat(self.source.date), datetime.date.fromisoformat(date)
        mapping = {}
        for day_old, day_new in ((old, new), (old + datetime.timedelta(days=1), new + datetime.timedelta(days=1))):
            mapping[day_old.isoformat().encode()] = day_new.isoformat().encode()
            mapping[day_old.strftime("%Y%m%d").encode()] = day_new.strftime("%Y%m%d").encode()
        pattern = re.compile(b"|".join(re.escape(k) for k in mapping))
        return pattern.sub(lambda m: mapping[m.group(0)], data)

    def deliver(self, cfg) -> None:
        """The day's collector CSVs arrive: the source day's files, re-dated."""
        for path in day_csvs(self.source):
            target = cfg.home / path.relative_to(self.source.home).parent.parent / cfg.date / path.name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(self.redate(path.read_bytes(), cfg.date))

    @staticmethod
    def certify_live(cfg, ledger) -> None:
        """The day's credit lifecycle, submitted to the live set-up ledger."""
        serial = None
        for action, _, _ in LIFECYCLE:
            status, credit = submit_credit(cfg, ledger, action, serial)
            if status != "VALID":
                raise RuntimeError(f"set-up {cfg.date} {action}: {status}")
            serial = credit["serial"]

    def prepare(self, k: int, variant: str, tr: Tracer):
        date = _date(CHAIN_START, CHAIN_DAYS + k)
        if self.live is not None:
            (home, ledger), self.live = self.live, None
            cfg = pipeline.RunConfig(home=home, date=date, seed=self.source.seed)
        else:
            cfg = pipeline.RunConfig(home=self.work / f"c{k}{variant}", date=date, seed=self.source.seed)
            self._copy(self.snapshot, cfg.home)
            ledger = pipeline.open_ledger(cfg)
        self.deliver(cfg)
        return cfg, ledger, self.base_height

    def commit(self, cfg, ledger, tr: Tracer):
        summary = commit_aggregated(cfg, ledger, tr)
        return summary.aggregate_count, summary.batch_count


class _Recorder:
    """Aggregator client that keeps the payloads it submits."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.payloads: List[bytes] = []

    def submit_tx(self, payload: bytes, submitter: str) -> str:
        self.payloads.append(payload)
        return self.ledger.submit_tx(payload, submitter)

    def __getattr__(self, attr):
        return getattr(self.ledger, attr)


WORKLOADS = {
    "day-clean": lambda work, seed: DayWorkload(work, seed, faulted=False),
    "day-faulted": lambda work, seed: DayWorkload(work, seed, faulted=True),
    "chain-30d": ChainWorkload,
}
