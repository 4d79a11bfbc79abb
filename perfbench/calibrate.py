"""The speed of the machine while the benchmark runs, from a fixed computation.

A shared host runs this benchmark faster or slower by a factor of up to two
for spells of seconds to minutes, and pure-Python code of one kind slows
down with it largely alike.  So the benchmark reports its times at a nominal
speed: each measured time is multiplied by the machine's speed around it,
``NOMINAL_S`` over the time a fixed pure-Python slice of work (``work``)
takes then.  The slice uses no part of the package, so nothing a change to
the package does can change it.

``Meter`` runs the slice from a wall-clock timer signal every ``PERIOD_S``
while the timed calls run, so even a call that lasts a minute is measured
at the speed the machine had during that minute; the time spent in the
slices is taken off the calls' latencies.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import reference as ref

# one slice took 0.15-0.28 ms on a 2-vCPU Intel Xeon VM, 0.19 ms in its
# common state; times are reported as if every slice had taken NOMINAL_S
NOMINAL_S = 0.19e-3
PERIOD_S = 0.02
WINDOW_S = 0.1  # a call's speed comes from the slices this close to it

# the bundled z3_full algebra and k1 diagram
_ALGEBRA = ref.Algebra("z3_full", ref.linear_tensor(3, 1, 1), ((1, 3, 2), (3, 2, 1), (2, 1, 3)))
_DIAGRAM = ref.Dia("k1", "spatial-graph", ("a", "b", "c", "d"), (
    ("vertex", ("a", "c", "b")), ("vertex", ("a", "c", "b")),
    ("crossing", ("a", "c", "b", "d")), ("crossing", ("a", "d", "b", "c")),
))


def work() -> int:
    """The reference's brute-force coloring count of a fixed small diagram:
    of the slices tried, the one whose speed the package's calls followed
    most closely."""
    return ref.exhaustive_count(_ALGEBRA, _DIAGRAM)


def slice_seconds() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def speed_now(slices: int = 60) -> float:
    """Nominal time over measured time of back-to-back slices (1 = nominal)."""
    return NOMINAL_S / statistics.median(slice_seconds() for _ in range(slices))


class Meter:
    """Samples the machine's speed from a timer signal while it is entered.

    ``spent`` is the time spent in the signal handler so far; a caller takes
    the difference over a call off the call's latency.
    """

    def __init__(self):
        self.ticks: list = []  # (time the slice ended, slice seconds)
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        work()
        end = time.perf_counter()
        self.ticks.append((end, end - start))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """The speed (1 = nominal) from the slices near the span [start, end]:
        those that ended inside it or within WINDOW_S of either end."""
        first = bisect.bisect_left(self.ticks, (start - WINDOW_S,))
        last = bisect.bisect_right(self.ticks, (end + WINDOW_S,))
        # an empty window cannot happen while the timer runs; then the closest slice
        near = self.ticks[first:last] or self.ticks[max(0, first - 1):first + 1]
        return NOMINAL_S / statistics.median(s for _, s in near)
