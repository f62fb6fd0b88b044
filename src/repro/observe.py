"""``repro.observe``: the one observer bus.

Three observers watch the datapath without changing it: telemetry
(metrics and spans), audit (the hash-chained flight recorder) and the
observatory (windowed series on the modeled clock).  They share one subscriber tuple, :data:`observers`
(``None`` while nothing is installed), and one record, :class:`Event`.
Every observation seam in ``hw``, ``hypervisor``, ``core``,
``systems``, ``faults`` and ``switchless`` has the same shape::

    observers = observe.observers
    if observers is not None:
        observe.publish(observers, Event("core", "call_begin", ...))

Dormant, that is one module-attribute read and one ``None`` test, and
no record is built.  Cold paths call :func:`emit`, which does the same
inside one function call.  A begin/end pair publishes both halves to
the tuple read at the begin, so a bracket always lands in the same
observers.  Each observer's ``on_event(event)`` looks ``event.kind``
up in its own kind -> handler table and ignores kinds it has no entry
for.  Observers never charge the simulated CPU.

The policies (:mod:`repro.faults`, :mod:`repro.switchless`) change
behaviour, so they keep their own module globals and explicit seams.
This module is a leaf: it imports nothing from ``repro``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple


@dataclass(slots=True)
class Event:
    """One observation, with the audit record's fields (the audit log
    adds ``seq``, ``epoch`` and ``hash``).

    ``ref`` is the object the seam observed, for observers that need
    more than those fields: the :class:`~repro.hw.trace.TransitionEvent`
    of a ``transition``, the CPU of a call bracket, the system of a
    redirect, the perf counter of a ``perf_counters``/``perf_reset``,
    the vector of a ``virq_inject``.
    """

    fam: str
    kind: str
    frm: str = ""
    to: str = ""
    caller_wid: Optional[int] = None
    callee_wid: Optional[int] = None
    mode: Optional[str] = None
    ring: Optional[int] = None
    decision: Optional[str] = None
    site: Optional[str] = None
    detail: str = ""
    cycles: int = 0
    ref: Any = None


#: Dispatch order.
ORDER = ("telemetry", "audit", "observatory")

#: The installed observers' ``on_event`` methods in :data:`ORDER`, or
#: ``None`` when nothing is installed.
observers: Optional[Tuple[Callable[[Event], None], ...]] = None

_installed: Dict[str, Any] = {}


def publish(subscribers: Tuple[Callable[[Event], None], ...],
            event: Event) -> None:
    """Hand ``event`` to every subscriber, in :data:`ORDER`."""
    for on_event in subscribers:
        on_event(event)


def emit(fam: str, kind: str, **fields: Any) -> None:
    """Publish one record to the installed observers, if any (for cold
    paths, where one function call costs nothing that matters)."""
    subscribers = observers
    if subscribers is not None:
        publish(subscribers, Event(fam, kind, **fields))


def _rebuild() -> None:
    global observers
    handlers = tuple(_installed[name].on_event for name in ORDER
                     if name in _installed)
    observers = handlers or None


def current(name: str) -> Any:
    """The observer installed under ``name``, or None."""
    return _installed.get(name)


def install(name: str, observer: Any) -> Any:
    """Install ``observer`` under ``name`` (replacing any installed
    one) and return it; ``name`` is one of :data:`ORDER`."""
    _installed[name] = observer
    _rebuild()
    return observer


def uninstall(name: str) -> Any:
    """Remove and return the observer installed under ``name``."""
    observer = _installed.pop(name, None)
    _rebuild()
    return observer


@contextlib.contextmanager
def scoped(name: str, observer: Any) -> Iterator[Any]:
    """Install ``observer`` under ``name`` for a ``with`` block,
    restoring whatever was installed before (nest-safe)."""
    previous = _installed.get(name)
    install(name, observer)
    try:
        yield observer
    finally:
        if previous is None:
            uninstall(name)
        else:
            install(name, previous)
