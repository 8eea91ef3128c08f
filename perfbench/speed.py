"""The machine's speed, sampled while the benchmark runs, and times
scaled to a fixed reference speed.

The benchmark's machine shares its cores with other tenants, and its speed
drifts: a fixed piece of pure-Python work runs up to about 1.9 times
slower for stretches of seconds to minutes.  A wall time alone then
measures the machine as much as the program.  ``Probe`` runs a fixed piece
of pure-Python work (``calibrate``, standard library only, so no change
to the library can change it) from a ``SIGALRM`` handler every
``PERIOD_S`` seconds while the workload runs, and records when each run
of it started and how long it took.  ``Probe.scaled(a, b)`` is the time
between ``a`` and ``b``, less the probe's own runs inside it, with every
stretch between two probe runs multiplied by ``REFERENCE_S`` over the
probe's local duration there (the median of ``SMOOTH`` neighbouring
runs).  So a scaled time reads in seconds at the speed at which one
``calibrate`` call takes ``REFERENCE_S``: a program that gets slower
reads slower, and a machine that gets slower does not.

The handler adds one frame to whatever Python stack it interrupts;
ladder inputs stay clear of the recursion limit by far more than that.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.025
# Neighbouring probe runs whose median is the local speed: about 0.3 s.
SMOOTH = 11
# One `calibrate` call on the baseline machine when it runs fast (see
# README.md); only the unit of scaled times depends on it.
REFERENCE_S = 0.0006
_KEYS = 512


def calibrate() -> int:
    """Fixed interpreter work of the kinds the solver does: tuple keys,
    dict and set updates, frozensets, small lists and calls."""
    table: dict[tuple[int, int], int] = {}
    seen: set[int] = set()
    total = 0
    for i in range(600):
        key = (i * 7919 % _KEYS, i & 7)
        table[key] = table.get(key, 0) + 1
        seen.add(key[0])
        if i % 64 == 0:
            total += len(frozenset(seen)) + len(sorted(table)[:4])
    return total + len(table)


class Probe:
    """Samples the machine's speed from a timer signal; see the module
    docstring.  Only one probe may run at a time in a process."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._rates: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        calibrate()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        took = [e - s for s, e in zip(self.starts, self.ends)]
        if not took:
            raise RuntimeError("the speed probe never ran")
        half = SMOOTH // 2
        local = [
            statistics.median(took[max(0, k - half):k + half + 1])
            for k in range(len(took))
        ]
        # The stretch before probe run k runs at the speed around run k;
        # the stretch after the last run at the speed around that one.
        self._rates = [REFERENCE_S / c for c in local + local[-1:]]

    def scaled(self, a: float, b: float) -> float:
        """Seconds from ``a`` to ``b`` (``perf_counter`` readings taken
        while the probe ran), without the probe's own runs, at the
        reference speed."""
        starts, ends, rates = self.starts, self.ends, self._rates
        total = 0.0
        k = bisect.bisect_right(ends, a)
        while True:
            # Stretch k lies between probe runs k - 1 and k.
            lo = ends[k - 1] if k > 0 else a
            hi = starts[k] if k < len(starts) else b
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += overlap * rates[k]
            if hi >= b:
                return total
            k += 1

    def wall_share(self) -> float:
        """Probe time over the time the probe was running."""
        return sum(e - s for s, e in zip(self.starts, self.ends)) / (
            self.ends[-1] - self.starts[0])
