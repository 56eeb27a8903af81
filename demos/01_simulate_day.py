"""A full simulated day, stage by stage.

Eight three-phase smart meters sample a 100 kWp solar plant every 1-2
seconds. Two collectors deduplicate the at-least-once transport stream and
publish per-meter minute-average CSVs; the aggregator fuses all 24 phases
into plant minute aggregates, cuts five-minute batches, and commits them to
the ledger emulation.

Run:  python3 demos/01_simulate_day.py [home-dir]
"""

import sys
import time
from pathlib import Path

from carboncert import pipeline
from carboncert.metersim import FaultConfig

home = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo-data")

# Inject transport faults on purpose: duplicates and bounded reordering are
# absorbed by the collectors, so the published CSVs are identical to a
# fault-free run of the same seed.
config = pipeline.RunConfig(
    home=home,
    date="2025-06-01",
    seed=42,
    faults=FaultConfig(duplicate_probability=0.05, reorder_jitter_max=20.0, rng_seed=1),
)

print(f"simulating {config.date} (seed {config.seed}) into {home}/ ...")
started = time.perf_counter()
try:
    result = pipeline.run_simulation(config)
except pipeline.DateCommitted as exc:
    sys.exit(f"{exc}: a committed date is never re-simulated; pass a fresh home-dir")
elapsed = time.perf_counter() - started

print(f"done in {elapsed:.1f}s")
print(f"  CSV rows written       : {result.csv_rows}   (8 meters x 3 phases x 1440 minutes)")
print(f"  plant minute aggregates: {result.aggregate_count}")
print(f"  committed batches      : {result.batch_count}   (288 five-minute windows)")
print(f"  flagged minutes        : {result.flagged_minutes}")
print(f"  missing windows        : {len(result.missing_windows)}")
print(f"  chain tip              : {result.tip_hash}")

# Peek at one collector file: the bit-exact interchange format every later
# stage (including the third-party audit) reads.
sample = result.csv_paths[0]
lines = sample.read_text().splitlines()
print(f"\nfirst rows of {sample.relative_to(home)}:")
for line in lines[:4]:
    print(f"  {line}")

ledger = pipeline.open_ledger(config)
print(f"\nledger height {ledger.height}, verify_chain -> {ledger.verify_chain()} (None = consistent)")
