"""Span-based tracing layered over the transition trace.

A :class:`Span` brackets one logical operation — a world call, a
Figure-4 cross-VM round trip, a redirected system call — and carries
two clock domains at once:

* **modeled time**: the simulated CPU's instruction/cycle counters and
  transition-trace sequence numbers at open and close (captured when
  the span is opened with a ``cpu=``);
* **host wall-clock**: ``time.perf_counter_ns`` at open and close.

Boundary crossings recorded by the CPU while a span is open attach to
the innermost span as :class:`SpanEvent` instants, so span nesting
reproduces the exact :class:`~repro.hw.trace.TransitionTrace` event
order.  Spans live only in the process that recorded them: a pool
worker's cell runs under a counters-only session and ships back its
metrics, never a span tree.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Dict, Iterator, List, Optional


class SpanEvent:
    """One instant inside a span (usually a world-boundary crossing)."""

    __slots__ = ("name", "wall_ns", "seq", "args")

    def __init__(self, name: str, wall_ns: int, seq: Optional[int] = None,
                 args: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.wall_ns = wall_ns
        self.seq = seq
        self.args = args or {}


class Span:
    """One timed, nestable operation."""

    __slots__ = ("name", "category", "args", "tid",
                 "start_wall_ns", "end_wall_ns",
                 "start_cycles", "end_cycles",
                 "start_instructions", "end_instructions",
                 "start_seq", "end_seq", "children", "events")

    def __init__(self, name: str, category: str = "",
                 args: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.category = category
        self.args = args or {}
        self.tid: int = 0
        self.start_wall_ns = 0
        self.end_wall_ns: Optional[int] = None
        self.start_cycles: Optional[int] = None
        self.end_cycles: Optional[int] = None
        self.start_instructions: Optional[int] = None
        self.end_instructions: Optional[int] = None
        self.start_seq: Optional[int] = None
        self.end_seq: Optional[int] = None
        self.children: List["Span"] = []
        self.events: List[SpanEvent] = []

    # -- derived quantities --------------------------------------------

    @property
    def wall_ns(self) -> int:
        """Host wall-clock duration (0 while still open)."""
        if self.end_wall_ns is None:
            return 0
        return self.end_wall_ns - self.start_wall_ns

    @property
    def cycles(self) -> Optional[int]:
        """Modeled cycles charged while the span was open."""
        if self.start_cycles is None or self.end_cycles is None:
            return None
        return self.end_cycles - self.start_cycles

    @property
    def instructions(self) -> Optional[int]:
        """Modeled instructions charged while the span was open."""
        if self.start_instructions is None or self.end_instructions is None:
            return None
        return self.end_instructions - self.start_instructions

    def iter_events(self) -> Iterator[SpanEvent]:
        """Every instant in this span's subtree, in recording order.

        Children and own events interleave by sequence number when both
        carry one (they do whenever a CPU was attached), which recovers
        the flat transition-trace order.
        """
        merged: List[SpanEvent] = list(self.events)
        for child in self.children:
            merged.extend(child.iter_events())
        merged.sort(key=lambda e: (e.seq if e.seq is not None else -1,
                                   e.wall_ns))
        return iter(merged)

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()


class Tracer:
    """Builds the span forest for one telemetry session.

    ``limit`` bounds the total span + instant count so a runaway traced
    sweep degrades (drops, counted in :attr:`dropped`) instead of
    exhausting memory.
    """

    def __init__(self, limit: int = 1_000_000) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._limit = limit
        self._recorded = 0
        self.dropped = 0

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str, category: str = "", cpu=None,
             **args: Any) -> Iterator[Optional[Span]]:
        """Open a span around a ``with`` block.

        ``cpu`` (a :class:`~repro.hw.cpu.CPU`) snapshots the modeled
        clocks at entry and exit; without it the span carries wall-clock
        only.  The span is yielded so callers can attach late args.
        """
        if self._recorded >= self._limit:
            self.dropped += 1
            yield None
            return
        self._recorded += 1
        span = Span(name, category, args)
        span.start_wall_ns = time.perf_counter_ns()
        if cpu is not None:
            span.start_cycles = cpu.perf.cycles
            span.start_instructions = cpu.perf.instructions
            span.start_seq = cpu.trace.mark
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            if cpu is not None:
                span.end_cycles = cpu.perf.cycles
                span.end_instructions = cpu.perf.instructions
                span.end_seq = cpu.trace.mark
            span.end_wall_ns = time.perf_counter_ns()
            self._stack.pop()

    def instant(self, name: str, seq: Optional[int] = None,
                **args: Any) -> Optional[SpanEvent]:
        """Attach an instant to the innermost open span.

        Instants outside any span are dropped (and counted): the
        metrics registry still sees every crossing, so nothing is lost
        from the aggregate view.
        """
        parent = self._stack[-1] if self._stack else None
        if parent is None or self._recorded >= self._limit:
            self.dropped += 1
            return None
        self._recorded += 1
        event = SpanEvent(name, time.perf_counter_ns(), seq, args)
        parent.events.append(event)
        return event

    def iter_spans(self) -> Iterator[Span]:
        """Every span in the forest, depth-first."""
        for root in self.roots:
            yield from root.iter_spans()
