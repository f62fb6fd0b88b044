"""Transition tracing.

Every world switch the simulated CPU performs is appended to a
:class:`TransitionTrace` as a :class:`TransitionEvent` and published on
the observer bus (:mod:`repro.observe`) as a ``transition`` record.
The Figure-2 benchmark renders these traces; tests assert on exact transition
sequences (e.g. that Proxos' baseline redirected syscall performs the
six crossings the paper counts).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from repro import observe


@dataclass(frozen=True)
class TransitionEvent:
    """One privilege/world boundary crossing.

    ``kind``    — event taxonomy key (matches the cost-model field name
                  where one exists: ``syscall_trap``, ``vmexit``,
                  ``world_call``, ...).
    ``frm``     — human-readable source world label, e.g. ``U(vm1)``.
    ``to``      — destination world label, e.g. ``K(host)``.
    ``detail``  — free-form annotation (exit reason, WID, vector...).
    ``cycles``  — cycle charge attributed to the event itself.
    ``instructions`` — instruction charge attributed to the event.
    """

    seq: int
    kind: str
    frm: str
    to: str
    detail: str = ""
    cycles: int = 0
    instructions: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        note = f" [{self.detail}]" if self.detail else ""
        return f"#{self.seq:<3} {self.kind:<18} {self.frm} -> {self.to}{note}"


class TransitionTrace:
    """An append-only log of transition events with query helpers."""

    def __init__(self, limit: Optional[int] = 1_000_000) -> None:
        self._events: List[TransitionEvent] = []
        self._seq = 0
        self._limit = limit
        self.enabled = True

    def record(self, kind: str, frm: str, to: str, detail: str = "",
               cycles: int = 0,
               instructions: int = 0) -> Optional[TransitionEvent]:
        """Append one event (no-op while disabled or past the limit)."""
        if not self.enabled:
            return None
        if self._limit is not None and len(self._events) >= self._limit:
            return None
        event = TransitionEvent(self._seq, kind, frm, to, detail, cycles,
                                instructions)
        self._seq += 1
        self._events.append(event)
        observers = observe.observers
        if observers is not None:
            observe.publish(observers, observe.Event(
                "trace", "transition", frm, to, detail=detail,
                cycles=cycles, ref=event))
        return event

    @contextlib.contextmanager
    def scoped(self, enabled: bool) -> Iterator[None]:
        """Temporarily force tracing on or off (microbenchmarks disable
        tracing around steady-state timing loops and restore it after)."""
        previous = self.enabled
        self.enabled = enabled
        try:
            yield
        finally:
            self.enabled = previous

    def clear(self) -> None:
        """Drop all recorded events and reset sequence numbering."""
        self._events.clear()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TransitionEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> TransitionEvent:
        return self._events[index]

    @property
    def events(self) -> Sequence[TransitionEvent]:
        """The recorded events, oldest first."""
        return tuple(self._events)

    def kinds(self) -> List[str]:
        """The sequence of event kinds, in order."""
        return [e.kind for e in self._events]

    def filter(self, predicate: Callable[[TransitionEvent], bool]
               ) -> List[TransitionEvent]:
        """Events satisfying ``predicate``, in order."""
        return [e for e in self._events if predicate(e)]

    def count(self, kind: str) -> int:
        """Number of events of the given kind."""
        return sum(1 for e in self._events if e.kind == kind)

    def since(self, mark: int) -> List[TransitionEvent]:
        """Events recorded at or after sequence number ``mark``."""
        return [e for e in self._events if e.seq >= mark]

    @property
    def mark(self) -> int:
        """Sequence number the *next* event will receive."""
        return self._seq

    def path(self, since: int = 0) -> List[str]:
        """The world labels visited since ``since``, collapsed.

        Starts with the source of the first event and appends every
        destination, merging consecutive duplicates; this is the
        Figure-2-style path rendering.
        """
        events = self.since(since)
        if not events:
            return []
        worlds = [events[0].frm]
        for event in events:
            if event.to != worlds[-1]:
                worlds.append(event.to)
        return worlds

    def render(self, since: int = 0) -> str:
        """Multi-line human-readable dump of events since ``since``."""
        return "\n".join(str(e) for e in self.since(since))
