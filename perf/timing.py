"""Unit timing with host-speed normalization.

The benchmark's host shares its CPUs: over tens of seconds the same
code runs up to 40% slower or faster.  Every round is therefore split
into units (a table cell, a loop of calls, a fleet cell's construction
or replay), and between units a fixed pure-Python kernel is timed: a
small event loop over objects, dicts and a heap, shaped like the
simulator's own work but independent of ``src/``.  A unit's host time
is reported scaled to a nominal host speed::

    scaled = raw * REFERENCE_S / (mean of the probes before and after it)

So a change to the simulator moves the scaled time, and a change in the
host's speed cancels out.  The probe takes the fastest of three short
runs, so a single interruption does not distort it, and allocates
almost nothing that outlives it, so it does not shift the workload's
garbage collection.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Iterable, List, Optional, Tuple

#: The probe's typical time on the host the bounds were measured on (a
#: shared 2-vCPU x86-64 VM, CPython 3.11, when not contended); scaled
#: times read as seconds on that host.  Fixed: changing it rescales
#: every recorded result.
REFERENCE_S = 0.0075

_EVENTS = 7000


class _Event:
    __slots__ = ("time", "kind", "owner", "data")

    def __init__(self, time_: int, kind: str, owner: "_Owner",
                 data: Tuple[int, int]) -> None:
        self.time = time_
        self.kind = kind
        self.owner = owner
        self.data = data


class _Owner:
    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: dict = {}
        self.busy = 0

    def handle(self, event: _Event) -> int:
        counts = self.counts
        counts[event.kind] = counts.get(event.kind, 0) + 1
        self.busy += event.data[0]
        return event.time + event.data[1]


def kernel(events: int = _EVENTS) -> int:
    """The fixed workload the probe times; returns events handled."""
    owners = [_Owner(f"o{i}") for i in range(64)]
    heap: list = []
    seq = 0
    for i in range(512):
        heapq.heappush(heap, (i, seq, _Event(i, "start", owners[i % 64],
                                             (i & 15, 7))))
        seq += 1
    done = 0
    while heap and done < events:
        _time, _seq, event = heapq.heappop(heap)
        next_time = event.owner.handle(event)
        done += 1
        kind = "step" if done & 1 else "io"
        heapq.heappush(heap, (next_time, seq, _Event(
            next_time, kind, owners[(seq * 7) % 64],
            (done & 31, 3 + (done & 7)))))
        seq += 1
    return done


def probe() -> float:
    """Host seconds of one kernel run: the fastest of three."""
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        kernel()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None or elapsed < best else best
    return best / 1e9


class Units:
    """Times one round's units, probing host speed between them.

    ``probing=False`` (the traced run) times units without probes and
    leaves them unscaled."""

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        #: (kind, raw seconds, scale) per unit, in order.
        self.timed: List[Tuple[str, float, float]] = []
        #: Every probe taken, in seconds.
        self.probes: List[float] = [probe()] if probing else []

    def unit(self, kind: str, fn: Callable[[], Any]) -> Any:
        """Run and time ``fn`` as one unit of ``kind``; returns its
        result."""
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            raw = (time.perf_counter_ns() - start) / 1e9
            scale = 1.0
            if self.probing:
                self.probes.append(probe())
                scale = REFERENCE_S / (sum(self.probes[-2:]) / 2)
            self.timed.append((kind, raw, scale))

    @property
    def scale(self) -> float:
        """The last unit's scale factor."""
        return self.timed[-1][2]

    def seconds(self, kinds: Optional[Iterable[str]] = None,
                raw: bool = False) -> float:
        """Scaled (or raw) seconds of the units of ``kinds`` (all by
        default)."""
        wanted = None if kinds is None else set(kinds)
        return sum(seconds if raw else seconds * scale
                   for kind, seconds, scale in self.timed
                   if wanted is None or kind in wanted)
