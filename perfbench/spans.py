"""Span recording for the benchmark: coarse step timers and the traced run's layer spans.

A span is ``[name, start, end, parent, cycle]``; ``parent`` indexes ``Tracer.spans``
and ``cycle`` is the cycle id (an int, or ``"setup"``) active when it opened.
Step spans (``cycle``, ``step.*``) are always recorded, because the end-to-end
metrics are read from them. Layer spans (``metersim.*``, ``collector.*``,
``aggregator.*``, ``ledger.*``, ``chaincode``, ``audit.*``) are recorded only
when ``Tracer(layers=True)``; they are taken around the public calls into each
layer from the benchmark's own code, through ``TimedLedger``,
``TimedContract`` and ``patched_program``.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("metersim", "collector", "aggregator", "ledger", "chaincode", "audit")


class Tracer:
    def __init__(self, layers: bool, speed):
        self.layers = layers
        self.speed = speed  # a hostspeed.HostSpeed, sampled around steps
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(list))  # cycle -> name -> values
        self.cycle = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = [name, start, end, parent, self.cycle]

    @contextlib.contextmanager
    def step(self, name):
        """A step span, with the host speed sampled just before and after it,
        so that a step shorter than the sampling period is scaled by the speed
        around it."""
        self.speed.sample()
        with self.span(name):
            yield
        self.speed.sample()

    def layer(self, name):
        """A layer span in the traced run; nothing otherwise."""
        return self.span(name) if self.layers else contextlib.nullcontext()

    def record(self, name, start, end):
        """A finished leaf span; cheaper than ``span`` for per-call wrappers."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.cycle])

    def count(self, name, value):
        if self.layers:
            self.counters[self.cycle][name].append(value)

    def ledger(self, ledger):
        return TimedLedger(ledger, self) if self.layers else ledger

    def step_times(self, name, duration=lambda start, end: end - start):
        """Durations of the named step spans, per cycle id; wall time unless
        ``duration(start, end)`` is given."""
        out = defaultdict(list)
        for span in self.spans:
            if span[0] == name:
                out[span[4]].append(duration(span[1], span[2]))
        return out


class TimedLedger:
    """Ledger proxy handed to the aggregator and the audit as their client."""

    _SPANS = {
        "submit_tx": "ledger.submit",
        "cut_all": "ledger.cut",
        "verify_chain": "ledger.verify_chain",
        "get_transaction": "ledger.query",
        "get_identity": "ledger.query",
        "query_state": "ledger.query",
        "state_items": "ledger.query",
    }

    def __init__(self, ledger, tracer: Tracer):
        self._ledger = ledger
        self._tracer = tracer

    def __getattr__(self, attr):
        target = getattr(self._ledger, attr)
        name = self._SPANS.get(attr)
        if name is None:
            return target
        tracer = self._tracer

        def timed(*args, **kwargs):
            with tracer.span(name):
                return target(*args, **kwargs)

        return timed


class TimedContract:
    """Chaincode wrapper: one ``chaincode`` span per invocation by the ledger."""

    def __init__(self, contract, tracer: Tracer):
        self._contract = contract
        self._tracer = tracer

    def __call__(self, op, submitter, state):
        start = perf_counter()
        result = self._contract(op, submitter, state)
        self._tracer.record("chaincode", start, perf_counter())
        return result


@contextlib.contextmanager
def patched_program(tracer: Tracer, metersim, pipeline):
    """Route the module-level calls the benchmark cannot reach directly
    through spans: ``run_day``'s calls to ``generate_day_readings`` and
    ``meter_sample_times``, and the contract ``pipeline.open_ledger`` builds.
    """
    if not tracer.layers:
        yield
        return
    saved = (metersim.generate_day_readings, metersim.meter_sample_times, pipeline.CreditContract)

    def wrap(name, fn, counter=None):
        def timed(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counter:
                tracer.count(counter, len(result))
            return result

        return timed

    contract_cls = saved[2]
    metersim.generate_day_readings = wrap("metersim.generate", saved[0], "metersim.readings")
    metersim.meter_sample_times = wrap("metersim.schedule", saved[1])
    pipeline.CreditContract = lambda **kw: TimedContract(contract_cls(**kw), tracer)
    try:
        yield
    finally:
        metersim.generate_day_readings, metersim.meter_sample_times, pipeline.CreditContract = saved


# -- per-layer metrics ------------------------------------------------------


def _cycle_views(tracer: Tracer):
    """Per cycle id: span totals, counts, per-call durations and layer self times."""
    child_time = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span[3] is not None:
            child_time[span[3]] += span[2] - span[1]
    views = defaultdict(
        lambda: {"total": defaultdict(float), "n": defaultdict(int), "calls": defaultdict(list),
                 "self": defaultdict(float), "open_chaincode": 0, "root": 0.0}
    )
    for i, (name, start, end, parent, cycle) in enumerate(tracer.spans):
        view = views[cycle]
        dur = end - start
        view["total"][name] += dur
        view["n"][name] += 1
        view["calls"][name].append(dur)
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            view["self"][layer] += dur - child_time[i]
        if name == "cycle":
            view["root"] += dur
        if name == "chaincode" and parent is not None and tracer.spans[parent][0] == "ledger.open":
            view["open_chaincode"] += 1
    return views


def _layer_values(view, counters):
    t, n, calls = view["total"], view["n"], view["calls"]
    c = defaultdict(int, {name: sum(values) for name, values in counters.items()})
    out = {}
    if n["metersim.run_day"]:
        out.update({
            "metersim.schedule_s": t["metersim.schedule"],
            "metersim.generate_s": t["metersim.generate"],
            "metersim.transport_s": t["metersim.run_day"] - t["metersim.generate"],
            "metersim.readings": c["metersim.readings"],
            "metersim.messages": c["metersim.messages"],
        })
    if n["collector.ingest"]:
        out.update({
            "collector.ingest_s": t["collector.ingest"],
            "collector.accepted": c["collector.accepted"],
            "collector.duplicates": c["collector.duplicates"],
            "collector.rejected": c["collector.rejected"],
            "collector.accept_ratio": c["collector.accepted"] / c["metersim.messages"],
            "collector.close_s": t["collector.close"],
            "collector.write_s": t["collector.write"],
            "collector.csv_bytes": c["collector.csv_bytes"],
        })
    if n["aggregator.run"]:
        out.update({
            "aggregator.run_s": t["aggregator.run"],
            "aggregator.self_s": view["self"]["aggregator"],
            "aggregator.aggregates": c["aggregator.aggregates"],
            "aggregator.flagged": c["aggregator.flagged"],
            "aggregator.batches": c["aggregator.batches"],
        })
    if n["ledger.open"]:
        out.update({
            "ledger.submit_s": t["ledger.submit"],
            "ledger.submits": n["ledger.submit"],
            "ledger.cut_s": t["ledger.cut"],
            "ledger.open_s": statistics.median(calls["ledger.open"]),
            "ledger.open_height": statistics.median(counters.get("ledger.open_height", [0])),
            "chaincode.calls": n["chaincode"],
            "chaincode.s": t["chaincode"],
            "chaincode.calls_per_open": view["open_chaincode"] / n["ledger.open"],
        })
    for name in ("ledger.invalid", "ledger.blocks", "ledger.block_bytes", "ledger.state_keys"):
        if name in counters:
            out[name] = c[name]
    if n["ledger.verify_chain"]:
        out["ledger.verify_chain_s"] = statistics.median(calls["ledger.verify_chain"])
    if n["audit.replay_day"]:
        out.update({
            "audit.replay_day_s": t["audit.replay_day"],
            "audit.compare_s": t["audit.compare"],
            "audit.rows": c["audit.rows"],
            "audit.mismatches": c["audit.mismatches"],
        })
    if view["root"]:
        out["trace.certify_s"] = view["root"]
        out["trace.coverage"] = sum(view["self"].values()) / view["root"]
    return out


def layer_metrics(tracer: Tracer):
    """Median over traced cycles of each per-layer value.

    A layer that does no work in the cycles (metersim and collector on
    chain-30d) is reported from the run's set-up, where it does.
    """
    views = _cycle_views(tracer)
    per_cycle = {
        cycle: _layer_values(views[cycle], tracer.counters.get(cycle, {}))
        for cycle in views
        if cycle is not None
    }
    cycles = [v for k, v in per_cycle.items() if k != "setup"]
    setup = per_cycle.get("setup", {})
    out = {}
    for name in set(setup).union(*cycles):
        values = [v[name] for v in cycles if name in v]
        if values:
            out[name] = statistics.median(values)
        elif not name.startswith("trace."):
            out[name] = setup[name]
    return out, per_cycle
