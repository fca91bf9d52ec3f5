"""Machine-speed reference: the benchmark's times on a host whose speed drifts.

On a shared host the speed of one core moves by tens of per cent within
seconds, as other tenants load the machine.  A time measured there says as
much about the neighbours as about flopwall.  ``SpeedRef`` follows that drift
with a fixed work unit of plain Python (``reference_unit``): an interval
timer (SIGALRM, no thread) interrupts the benchmark every ``INTERVAL_S`` and
the handler times one unit.  A measured interval is then reported as

    normalized = (wall time - time spent in the handler) * NOMINAL_S / u

where ``u`` is the median unit time of the ticks within ``WINDOW_S`` of the
interval.  That is the time the interval would have taken on a machine that
runs the reference unit in ``NOMINAL_S``.  The unit uses only the standard
library and never flopwall, so a change to flopwall cannot move it.

The unit mixes the kinds of work flopwall does in pure Python: Fraction
arithmetic, complex elementary functions, dict updates keyed by tuples, and
building and dropping many short-lived tuples.  The last part matters: a
unit without it sped up and slowed down more than verify-all passes did,
and left their normalized times about twice as spread.
"""

from __future__ import annotations

import bisect
import cmath
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05  # timer period
WINDOW_S = 0.5  # ticks this close to an interval set its speed
NOMINAL_S = 2.0e-3  # the reference unit's time on the nominal machine


def reference_unit() -> int:
    """A fixed piece of pure-Python work, about 2 ms on a 2.1 GHz Xeon core."""
    acc = Fraction(0)
    for i in range(1, 80):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    z = 0.3 + 0.7j
    s = 0j
    for i in range(800):
        s += cmath.exp(z * (i * 1e-3)) * cmath.log(1 + z * i) / (i + 1)
    table: dict = {}
    for i in range(1200):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    short_lived = [(i, 3 * i, (i, i + 1)) for i in range(3000)]
    for t in short_lived:
        table[t[1] % 97] = t
    return acc.numerator % 7 + int(abs(s)) + len(table)


class SpeedRef:
    """Ticks of the reference unit while ``start``ed, and intervals normalized by them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts: list = []  # tick start times, increasing
        self.units: list = []  # reference unit time of each tick
        self._busy = False
        self._previous = None

    def tick(self, *_):
        if self._busy:
            return
        self._busy = True
        # no collection inside the tick: it would scan the benchmark's objects
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = self.clock()
            reference_unit()
            self.starts.append(t0)
            self.units.append(self.clock() - t0)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _ticks(self, t0: float, t1: float) -> range:
        return range(bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1))

    def handler_s(self, t0: float, t1: float) -> float:
        """Time the ticks took inside [t0, t1]; a tick never straddles a timestamp."""
        return sum(self.units[i] for i in self._ticks(t0, t1))

    def unit_s(self, t0: float, t1: float) -> float:
        """Median reference unit time within WINDOW_S of [t0, t1]."""
        near = self._ticks(t0 - WINDOW_S, t1 + WINDOW_S)
        if not near:
            raise RuntimeError("no speed-reference tick near the interval; was start() called?")
        return statistics.median(self.units[i] for i in near)

    def normalized(self, t0: float, t1: float) -> float:
        """The interval's own time, without ticks, at the nominal machine speed."""
        return (t1 - t0 - self.handler_s(t0, t1)) * NOMINAL_S / self.unit_s(t0, t1)

    def raw(self, t0: float, t1: float) -> float:
        """The interval's own time, without ticks, as the wall clock read it."""
        return t1 - t0 - self.handler_s(t0, t1)
