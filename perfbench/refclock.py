"""Host-speed reference: timings scaled to a fixed speed of the machine.

On a shared host the speed at which one thread runs Python changes by up to
2x over seconds to minutes, as other tenants come and go, and CPU time
follows wall time, so the slowdown is contention, not descheduling.  A
fixed pure-Python computation that does what heq does (2x2 integer
products, list-based free reduction, dict lookups of a union-find) is
timed between operations, at least every TICK_EVERY seconds.  An
operation's scaled time is its wall time multiplied by REF_SECONDS over the
reference time measured around it: the time it would take on a host that
runs the reference in REF_SECONDS.  Over repeats of one operation the
durations and the reference times are summed before dividing, so a repeat
that straddles a change of speed weighs no more than the others.

The reference runs with the garbage collector off, so the heap heq leaves
behind does not change its cost; it does not touch heq.
"""

from __future__ import annotations

import bisect
import gc
import random
from time import perf_counter

import workloads as wl

# About the fastest reference time seen on the development VM (2 vCPU,
# Python 3.11): a scaled second is close to a wall second on a quiet host.
REF_SECONDS = 1.0e-3
TICK_EVERY = 0.2
TICK_REPEATS = 3

_rng = random.Random("perfbench-reference")
_PRODUCT_WORDS = [wl.random_free_word(_rng, 60) * 2 for _ in range(4)]
_REDUCE_WORDS = [w + wl.invert(w[:200])
                 for w in (wl.random_free_word(_rng, 400) for _ in range(5))]


def reference() -> None:
    for w in _PRODUCT_WORDS:
        wl.word_value(w, wl.SANOV)
    for w in _REDUCE_WORDS:
        wl.free_reduce(w)
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while parent.get(a, a) != a:
            a = parent[a]
        return a

    for i in range(700):
        a, b = find(i * 7919 % 250), find(i * 104729 % 250)
        if a != b:
            parent[max(a, b)] = min(a, b)
    edges: dict[tuple[int, int], list[int]] = {}
    for i in range(500):
        edges.setdefault((i % 97, i % 13), []).append(i)


def time_reference() -> float:
    """Fastest of TICK_REPEATS back-to-back reference runs, GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(TICK_REPEATS):
            start = perf_counter()
            reference()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Reference ticks over a run, and the scale factor for any interval."""

    def __init__(self):
        self.at: list[float] = []
        self.ref: list[float] = []

    def tick(self) -> None:
        now = perf_counter()
        self.ref.append(time_reference())
        self.at.append(now)

    def tick_if_due(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= TICK_EVERY:
            self.tick()

    def around(self, start: float, end: float) -> float:
        """Mean of the last reference time before start and the first after
        end (or the nearest one where a side has none)."""
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        sides = [self.ref[i] for i in (before, after) if 0 <= i < len(self.at)]
        return sum(sides) / len(sides)

    def scaled_mean(self, intervals, durations=None) -> float:
        """Scaled mean over repeats of one operation: REF_SECONDS times the
        summed durations over the summed reference times around them.

        durations defaults to each interval's length; a traced run passes a
        layer's self time inside each interval instead.
        """
        if durations is None:
            durations = [end - start for start, end in intervals]
        return REF_SECONDS * sum(durations) / sum(self.around(*i) for i in intervals)
