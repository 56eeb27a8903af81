"""carboncert benchmark: timed certification cycles on one workload.

    python3 perfbench/run.py --workload day-clean --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Certification cycles run back to back from one caller in one
thread while the next one is expected to end within ``--seconds``, and at
least ``MIN_CYCLES``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs each cycle twice, untraced and then traced with the same
inputs, checks the two fingerprints are equal and reports the per-layer
metrics. End-to-end times are wall times corrected for the host's speed
changes by ``hostspeed.HostSpeed``; per-layer times are plain wall times.
The last line of standard output is the result object; the full result, with
fingerprints, environment and (traced) spans, is written to
``perfbench-results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench-results"
# An untraced run's credit steps and audit take well under a second to a few
# seconds; one cycle per run gives too few samples of them for a steady median.
MIN_CYCLES = 2
# setup_s begins with the program's start-up: a fresh interpreter importing
# the CLI, STARTS times. Start-up is loading and linking files, which slows
# with the host unlike the CPU probe of hostspeed, so each is scaled by a
# reference start-up importing part of the standard library, run just before
# and after it: REFERENCE_START_S over the mean of the two.
STARTS = 3
START_PROGRAM = "import carboncert.cli"
START_REFERENCE = ("import argparse, asyncio, csv, ctypes, dataclasses, decimal, email.parser, hashlib, "
                   "json, logging, sqlite3, ssl, unittest, xml.etree.ElementTree")
REFERENCE_START_S = 0.15

# end-to-end metric -> step span whose durations it is the median of
STEPS = {
    "certify_s": "cycle",
    "commit_day_s": "step.commit",
    "credit_op_s": "step.credit",
    "audit_s": "step.audit",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(values):
    """(percentile, value) for the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0):
        if len(ordered) * (1 - p / 100) >= 10:
            return p, ordered[math.ceil(p / 100 * len(ordered)) - 1]
    return None


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def start_up():
    """(reference-speed seconds, wall seconds): medians over STARTS program start-ups."""
    def timed(code):
        started = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        return perf_counter() - started

    reference = [timed(START_REFERENCE)]
    corrected, wall = [], []
    for _ in range(STARTS):
        wall.append(timed(START_PROGRAM))
        reference.append(timed(START_REFERENCE))
        corrected.append(wall[-1] * REFERENCE_START_S * 2 / (reference[-2] + reference[-1]))
    return statistics.median(corrected), statistics.median(wall)


def environment(seed):
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "carboncert").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "carboncert").is_dir():
        print(f"perfbench: program source not found at {SRC / 'carboncert'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    from carboncert import metersim, pipeline
    from hostspeed import HostSpeed
    from spans import Tracer, layer_metrics, patched_program
    from workloads import OPS_PER_CYCLE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    speed = HostSpeed()
    tracer = Tracer(layers=bool(args.trace), speed=speed)
    untraced = Tracer(layers=False, speed=speed) if args.trace else tracer
    bench = WORKLOADS[args.workload](work, args.seed)
    fingerprints, failures = [], []
    attempted = 0
    start_up_s, start_up_wall = start_up()
    speed.start()
    try:
        speed.sample()
        setup_start = perf_counter()
        with patched_program(tracer, metersim, pipeline):
            bench.setup(tracer)
        setup_end = perf_counter()
        speed.sample()
        deadline = perf_counter() + args.seconds
        k, longest = 0, 0.0
        minimum = 1 if args.trace else MIN_CYCLES
        while k < minimum or perf_counter() + longest <= deadline:
            iteration_started = perf_counter()
            variants = [("u", untraced), ("t", tracer)] if args.trace else [("", tracer)]
            results = []
            for variant, tr in variants:
                attempted += OPS_PER_CYCLE
                try:
                    with patched_program(tr, metersim, pipeline):
                        result = bench.run(k, variant, tr)
                except Exception:
                    traceback.print_exc()
                    failures += [f"cycle {k}{variant}: exception"] * OPS_PER_CYCLE
                    continue
                failures += [f"cycle {k}{variant} {f}" for f in result.failures]
                results.append(result.fingerprint)
            fingerprints.append(results[0] if results else None)
            if args.trace:
                attempted += 1
                if len(results) != 2 or results[0] != results[1]:
                    failures.append(f"cycle {k}: traced fingerprint differs: {results}")
            longest = max(longest, perf_counter() - iteration_started)
            k += 1
    finally:
        speed.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    def in_cycle_order(per_cycle):
        return [t for cycle in sorted(c for c in per_cycle if c is not None) for t in per_cycle[cycle]]

    samples, wall = {}, {}
    for name, step in STEPS.items():
        samples[name] = in_cycle_order(untraced.step_times(step, speed.reference_time))
        wall[name] = in_cycle_order(untraced.step_times(step))
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    # setup_s: the program's start-up, then the workload's own set-up
    samples["setup_s"] = [start_up_s + speed.reference_time(setup_start, setup_end)]
    wall["setup_s"] = [start_up_wall + setup_end - setup_start]
    if not all(samples[name] for name in STEPS):
        print("perfbench: no cycle completed; no timing to report", file=sys.stderr)
        return 1

    per_cycle_layers = {}
    if args.trace:
        values, per_cycle_layers = layer_metrics(tracer)
        plain, traced = (t.step_times("cycle", speed.reference_time) for t in (untraced, tracer))
        overhead = [traced[k][0] - plain[k][0] for k in plain if k in traced]
        values["trace.overhead_s"] = statistics.median(overhead) if overhead else float("nan")
        wanted = spec["per_layer"]
    else:
        values = {name: statistics.median(v) for name, v in samples.items()}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if not isinstance(values.get(m["name"]), (int, float))
               or math.isnan(values[m["name"]])]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  cycles {k}  "
          f"operations {attempted}  failed {len(failures)}  host slowdown {speed.slowdown():.3f}")
    for name, metric in metrics.items():
        line = f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}"
        if name in samples and not args.trace:
            top = tail(samples[name])
            line += f"   median of {len(samples[name])}"
            line += f", p{top[0]:g} {top[1]:.6g}" if top else ", too few samples for a tail percentile"
            if name in wall:
                line += f"; wall {statistics.median(wall[name]):.6g}"
        print(line)
    for failure in failures:
        print(f"  FAILED {failure}")
    for i, fp in enumerate(fingerprints):
        print(f"  fingerprint {i}: {json.dumps(fp, sort_keys=True)}")
    env = environment(args.seed)
    print(f"  environment: {json.dumps(env, sort_keys=True)}")

    full = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": attempted,
        "failures": failures,
        "fingerprints": fingerprints,
        "samples": samples,
        "wall_samples": wall,
        "host_slowdown": speed.slowdown(),
        "host_probes": speed.probes,
        "steps": [span for span in untraced.spans if span[0] in STEPS.values()],
        "metrics": metrics,
        "layers_per_cycle": {str(c): v for c, v in per_cycle_layers.items()},
        "invalid_by_reason": sum(
            (Counter({name: sum(v) for name, v in counters.items() if name.startswith("ledger.invalid.")})
             for counters in tracer.counters.values()),
            Counter(),
        ),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if args.trace:
        with gzip.open(RESULTS / f"{stem}-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "cycle"], "spans": tracer.spans}, fh)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
