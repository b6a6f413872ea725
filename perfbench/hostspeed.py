"""Host-speed normalisation of measured times.

The benchmark runs on a few cores of a shared host whose speed changes
by up to a factor of two, for periods from under a second to minutes.
CPU time moves with wall time, so neither of them alone compares two
commits.  `SpeedClock` therefore runs a fixed probe, a pure-Python
kernel that does the same kind of work as the program (tuple arithmetic
mod m, set closure, frozensets) but calls none of it, between the
items of a repetition, about every `SEGMENT_S` seconds.  The time
between two probes is a segment; it is scaled by REFERENCE_S over the
mean of the two probe times that bracket it.  Sums of scaled segments
are reference seconds: the time the work would take on a host on which
one probe takes REFERENCE_S.  Probe time is never part of a segment.
"""

from __future__ import annotations

import gc
import time

# Probe duration that defines the reference speed: a round figure near
# the probe's median between items on the host of perfbench/BASELINE.json.
REFERENCE_S = 0.009
# A probe runs at the first item boundary at least this long after the
# previous one.
SEGMENT_S = 0.05
# Probes on each side of a segment, beyond the two that bracket it, whose
# mean gives the host speed for the segment.
WINDOW = 2

clock = time.perf_counter


def probe_kernel() -> int:
    """Closures of all cyclic subgroups of a metacyclic group of order 378."""
    m, n, s = 63, 6, 0
    tpow = [pow(4, k, m) for k in range(n)]

    def mul(x, y):
        i = (x[0] + y[0] * tpow[x[1]]) % m
        j = x[1] + y[1]
        if j >= n:
            j -= n
            i = (i + s) % m
        return (i, j)

    seen = set()
    for x in [(i, j) for i in range(m) for j in range(n)]:
        elems = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            new = []
            for y in frontier:
                z = mul(y, x)
                if z not in elems:
                    elems.add(z)
                    new.append(z)
            frontier = new
        seen.add(frozenset(elems))
    return len(seen)


class SpeedClock:
    """Raw and reference-scaled time of the work between `lap` calls.

    `item(seconds)` records the raw duration of one item; `mark()` goes
    at each item boundary and closes a segment when one is due, except
    while `in_item` is set, so that no item's time holds a probe; `lap()`
    closes the open segment and returns (raw, scaled) seconds since the
    previous lap.  `latencies` holds the scaled item durations.
    `kernel` is the probe to run; the tracer passes a wrapped one so
    that probe time is kept out of the layers' self times.
    """

    def __init__(self, kernel=probe_kernel) -> None:
        self.kernel = kernel
        self.latencies: list[float] = []
        self.probes: list[float] = []
        # Closed segments of the current lap: (raw seconds, raw item
        # durations); segment k lies between probes[first + k] and the next.
        self.segments: list[tuple[float, list[float]]] = []
        self.pending: list[float] = []
        self.in_item = False
        self.kernel()  # the first call of a fresh interpreter runs cold
        self._probe()
        self.first = 0
        self.seg_start = clock()

    def _probe(self) -> None:
        # The probe's allocations must not start a collection of the
        # program's heap, or its time would grow with that heap.
        enabled = gc.isenabled()
        gc.disable()
        t = clock()
        self.kernel()
        self.probes.append(clock() - t)
        if enabled:
            gc.enable()

    def item(self, seconds: float) -> None:
        self.pending.append(seconds)

    def mark(self, force: bool = False) -> None:
        seg = clock() - self.seg_start
        if (seg < SEGMENT_S or self.in_item) and not force:
            return
        self._probe()
        self.segments.append((seg, self.pending))
        self.pending = []
        self.seg_start = clock()

    def lap(self) -> tuple[float, float]:
        """Scale each segment by REFERENCE_S over the mean of the probes
        within WINDOW of its two bracketing probes.  The host switches
        between a fast and a slow state faster than segments last, so
        the mean estimates a segment's speed where one probe or a median
        would pick one state."""
        self.mark(force=True)
        raw = scaled = 0.0
        probes = self.probes
        for k, (seg, items) in enumerate(self.segments, start=self.first):
            near = probes[max(0, k - WINDOW):k + 2 + WINDOW]
            factor = REFERENCE_S * len(near) / sum(near)
            raw += seg
            scaled += seg * factor
            self.latencies.extend(x * factor for x in items)
        self.first += len(self.segments)
        self.segments = []
        return raw, scaled
