"""Command-line surface: simulate, credits, audit, ledger inspection.

Exit codes: 0 success, 1 domain failure, 2 usage error.

Each command loads the layers it runs. ``credits`` and ``ledger`` load
``model``, ``ledger``, ``chaincode`` and ``pipeline`` alone; ``simulate``
loads the telemetry layers and numpy when ``pipeline.run_simulation`` runs,
and ``audit`` loads ``audit`` (numpy with it) in ``cmd_audit``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import pipeline
from .ledger import ChainDamaged, UnknownIdentity
from .model import canonical_json, parse_date

DEFAULT_HOME = "carbon-ledger-data"


def _home(args) -> Path:
    if args.home:
        return Path(args.home)
    return Path(os.environ.get("CARBON_LEDGER_HOME", DEFAULT_HOME))


def _existing_ledger(args):
    """The ledger of the data root, under the contract its genesis records;
    NoChain, creating nothing, where there is no chain."""
    config = pipeline.RunConfig(home=_home(args))
    pipeline.chain_parameters(config.chain_root)
    return pipeline.open_ledger(config)


def _valid_date(text: str) -> str:
    try:
        parse_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carboncert",
        description="Simulated carbon-credit certification pipeline.",
    )
    parser.add_argument("--home", help="data root (default: $CARBON_LEDGER_HOME)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulated day end to end")
    p_sim.add_argument("--config", help="run configuration JSON")
    p_sim.add_argument("--seed", type=int, help="override RNG seed")
    p_sim.add_argument("--date", type=_valid_date, help="simulated date (YYYY-MM-DD)")

    p_cred = sub.add_parser("credits", help="drive the credit lifecycle")
    p_cred.add_argument("action", choices=["accrue", "verify", "issue", "sell", "retire"])
    p_cred.add_argument("--date", type=_valid_date, help="date for accrue")
    p_cred.add_argument("--serial", help="credit serial for verify/issue/sell/retire")
    p_cred.add_argument("--as", dest="identity", required=True, help="acting identity name")

    p_audit = sub.add_parser("audit", help="third-party replay verification")
    p_audit.add_argument("--config", help="run configuration JSON; its emission and rules must be the chain's")
    p_audit.add_argument("--date", type=_valid_date, required=True)

    p_led = sub.add_parser("ledger", help="inspect the chain")
    led_sub = p_led.add_subparsers(dest="ledger_command", required=True)
    led_sub.add_parser(
        "verify",
        help="recompute all hashes and linkage; re-execute every transaction under the "
        "emission and rules the genesis block records",
    )
    led_sub.add_parser("inspect", help="print block summaries; fail on a chain the open finds damaged")
    p_hist = led_sub.add_parser("history", help="transaction history of a state key")
    p_hist.add_argument("key")
    return parser


def cmd_simulate(args) -> int:
    config = pipeline.load_run_config(args.config, _home(args), date=args.date, seed=args.seed)
    result = pipeline.run_simulation(config)
    print(f"{result.csv_rows} / {result.aggregate_count} / {result.batch_count}")
    print(f"chain tip {result.tip_hash}")
    if result.flagged_minutes:
        print(f"flagged minutes: {result.flagged_minutes}")
    if result.missing_windows:
        print(f"missing windows: {len(result.missing_windows)}")
    for notice in result.notices:
        print(f"notice: {notice}", file=sys.stderr)
    return 0


def cmd_credits(args) -> int:
    ledger = _existing_ledger(args)
    try:
        identity = ledger.get_identity(args.identity)
    except UnknownIdentity:
        print(f"error: unknown identity {args.identity!r}", file=sys.stderr)
        return 1

    if args.action == "accrue":
        if not args.date:
            print("error: accrue requires --date", file=sys.stderr)
            return 2
        payload = canonical_json({"date": args.date, "op": "accrue", "producer": identity.name})
        key = f"accrual/{identity.name}/{args.date}"
    else:
        if not args.serial:
            print(f"error: {args.action} requires --serial", file=sys.stderr)
            return 2
        op = {
            "verify": {"op": "credit_verify", "serial": args.serial},
            "issue": {"op": "credit_issue", "serial": args.serial},
            "sell": {"op": "credit_transition", "serial": args.serial, "target": "SOLD"},
            "retire": {"op": "credit_transition", "serial": args.serial, "target": "RETIRED"},
        }[args.action]
        payload = canonical_json(op)
        key = f"credit/{args.serial}"

    tx_id = ledger.submit_tx(payload, identity.name)
    ledger.cut_all()
    tx = ledger.get_transaction(tx_id)
    if tx.status != "VALID":
        print(f"error: {args.action} rejected: {tx.reason}", file=sys.stderr)
        return 1
    if args.action == "accrue":
        serial = json.loads(ledger.query_state(key).decode())["serial"]
        credit = json.loads(ledger.query_state(f"credit/{serial}").decode())
    else:
        credit = json.loads(ledger.query_state(key).decode())
    print(
        f"{credit['serial']} state={credit['state']} "
        f"energy_kwh={credit['energy_kwh']:.3f} co2_kg={credit['co2_kg']:.3f}"
    )
    return 0


def cmd_audit(args) -> int:
    from . import audit as audit_mod

    config = pipeline.load_run_config(args.config, _home(args))
    pipeline.check_agreement(config)
    ledger = pipeline.open_ledger(config)
    report = audit_mod.replay_verify(
        csv_roots=config.collector_roots,
        chain=ledger,
        date=args.date,
        producer=config.producer,
        rules=config.rules,
        emission=config.emission,
    )
    json_path, txt_path = audit_mod.emit_report(report, config.reports_dir)
    print(txt_path.read_text(encoding="utf-8"), end="")
    print(f"report: {json_path}")
    return 0 if report.passed else 1


def cmd_ledger(args) -> int:
    ledger = _existing_ledger(args)
    if args.ledger_command == "verify":
        bad = ledger.verify_chain()
        if bad is None:
            print(f"chain OK, height {ledger.height}, tip {ledger.tip_hash}")
            return 0
        print(f"chain BROKEN at height {bad}")
        return 1
    if args.ledger_command == "inspect":
        for block in ledger.blocks():
            print(
                f"block {block.height} txs={len(block.transactions)} "
                f"hash={block.block_hash[:16]} prev={block.prev_hash[:16]}"
            )
    else:
        history = ledger.get_history(args.key)
        if not history:
            print(f"no transactions touched {args.key!r}")
        for tx in history:
            print(f"{tx.tx_id[:16]} seq={tx.sequence} by={tx.submitter} status={tx.status}"
                  + (f" reason={tx.reason}" if tx.reason else ""))
    if ledger.damage is not None:  # the blocks above it were not loaded
        height, why = ledger.damage
        raise ChainDamaged(f"chain damaged at height {height}: {why}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "simulate": cmd_simulate,
        "credits": cmd_credits,
        "audit": cmd_audit,
        "ledger": cmd_ledger,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
