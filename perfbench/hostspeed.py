"""Host speed sampling, to take a shared host's speed changes out of timings.

On a host shared with other tenants one thread runs the same Python code at
speeds up to twice apart, holding each speed from a fraction of a second to a
minute, so wall times of the same work spread across runs by more than any
regression bound. ``HostSpeed`` samples that speed while the benchmark runs.
A *probe* runs a fixed reference task (sorting and scanning a list, parsing
and writing JSON: interpreter and memory work like the program's) once
untimed, to bring its data back into the caches the program evicts, and then
``RUNS`` times timed; the probe's reading is the median of those runs. A
SIGALRM handler probes every ``PERIOD`` seconds, and the benchmark probes
just before and after each step, so that steps shorter than the period are
scaled by the speed around them.

``reference_time(start, end)`` is the wall time of an interval of the
benchmark's thread with the probes taken out and each piece between two
probes scaled by ``REFERENCE_S / r``, where ``r`` is the median reading of
the ``2 * WINDOW + 1`` probes around the piece's end: the seconds the interval
would have taken at the speed at which the reference task takes
``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
from time import perf_counter

PERIOD = 0.2
RUNS = 3
WINDOW = 1
REFERENCE_S = 0.00088

_KEYS = [(i * 7919) % 5003 for i in range(5_000)]
_ORDER = list(range(len(_KEYS)))
_SORTED = list(_KEYS)
_SLOTS = [0] * 64
_DOCUMENT = json.dumps([{"id": i, "value": i * 0.37, "name": str(i) * 3} for i in range(200)])


def reference_task():
    """Sort and scan a fixed list without allocating, then parse and write a
    fixed JSON document. Both halves follow the host's slow spells; the first
    does not depend on the state of the program's heap, the second tracks the
    ledger's JSON-bound work most closely."""
    keys = _SORTED
    keys[:] = _KEYS
    keys.sort()
    slots = _SLOTS
    for key, i in zip(keys, _ORDER):
        slots[key & 63] = i
    json.dumps(json.loads(_DOCUMENT), sort_keys=True)


class HostSpeed:
    def __init__(self):
        self.probes = []  # (start, end, reading) of each probe
        self._busy = False
        self._previous = None
        self._starts = self._ends = self._scale = None

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self) -> None:
        """Probe the host speed now."""
        self._busy = True
        # Collections the probe's allocations would trigger stay with the program.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_task()
            times = []
            for _ in range(RUNS):
                t = perf_counter()
                reference_task()
                times.append(perf_counter() - t)
            self.probes.append((start, perf_counter(), statistics.median(times)))
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._starts = [p[0] for p in self.probes]
        self._ends = [p[1] for p in self.probes]
        readings = [p[2] for p in self.probes]
        self._scale = [
            REFERENCE_S / statistics.median(readings[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(len(readings))
        ]

    def reference_time(self, start: float, end: float) -> float:
        """Seconds at the reference speed spent in ``[start, end]``; call after ``stop``."""
        if not self._scale:
            raise RuntimeError("no host speed probes: call sample() or run for a PERIOD before stop()")
        last = len(self._scale) - 1
        i = bisect.bisect_left(self._starts, start)
        t, total = start, 0.0
        while i <= last and self._starts[i] < end:
            total += (self._starts[i] - t) * self._scale[i]
            t = self._ends[i]
            i += 1
        return total + (end - t) * self._scale[min(i, last)]

    def slowdown(self) -> float:
        """Median probe reading over ``REFERENCE_S``: 1.0 at the reference speed."""
        return statistics.median(p[2] for p in self.probes) / REFERENCE_S
