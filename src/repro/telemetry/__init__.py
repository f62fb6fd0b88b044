"""``repro.telemetry``: the unified observability subsystem.

One :class:`TelemetrySession` bundles the two collection surfaces:

* a **metrics registry** (:mod:`repro.telemetry.registry`) — counters,
  gauges, fixed-bucket histograms over *modeled* quantities, so a
  snapshot of a deterministic workload is itself deterministic;
* a **span tracer** (:mod:`repro.telemetry.spans`) — nested spans
  carrying modeled cycles *and* host wall-clock, with every transition
  trace event attached as an instant to the innermost open span.

Exactly one session is installed process-wide at a time, as one
subscriber on the observer bus (:mod:`repro.observe`); it receives
every datapath record through :meth:`TelemetrySession.on_event`, so:

* with telemetry **off**, the hooks are a dead branch: all modeled
  counters are untouched;
* with telemetry **on**, collection only ever *reads* the perf
  counters and the trace — it never charges, so modeled instructions,
  cycles, per-event counts and world switches stay **bit-identical**
  to a telemetry-disabled run (only host wall-clock changes).

Sessions come in two shapes:

* the **span session** (``TelemetrySession(label)``) — every counter
  plus the full span forest with transition instants and wall-clock;
  feeds the Chrome trace exporter and the cost-attribution profiler
  (the ``crossover audit`` cells);
* the **counters-only session** (:meth:`TelemetrySession.lightweight`)
  — every counter and the ``world_call.cycles`` histogram, but no
  span, no instant and no wall-clock read (the campaign sweeps, the
  observatory recording, every pool cell).

Exporters (Chrome trace-event JSON, the world-switch crossing matrix,
the metrics snapshot) live in :mod:`repro.telemetry.export`; the
cost-attribution profiler in :mod:`repro.telemetry.profiler`.
``crossover audit --trace-out DIR`` writes their files.
"""

from __future__ import annotations

from typing import Callable, ContextManager, Dict, List, Optional, Tuple

from repro import observe
from repro.hw.perf import WORLD_SWITCH_KINDS
from repro.telemetry.registry import (Counter, Gauge, Histogram,
                                      MetricsRegistry)
from repro.telemetry.spans import Span, SpanEvent, Tracer

__all__ = [
    "TelemetrySession", "MetricsRegistry",
    "Counter", "Gauge", "Histogram",
    "Tracer", "Span", "SpanEvent",
    "current", "enabled", "install", "uninstall", "scoped",
]


class TelemetrySession:
    """All telemetry collected between :func:`install` and
    :func:`uninstall`.

    Observes the datapath through :meth:`on_event` (see
    :mod:`repro.observe`).  The handlers are deliberately
    allocation-light: every labeled counter the hot paths touch is
    resolved once and its bound ``inc`` method cached under a plain
    tuple, skipping the registry's label canonicalization on every call.
    """

    def __init__(self, label: str = "telemetry", spans: bool = True) -> None:
        self.label = label
        #: Whether the session builds spans and instants (the span
        #: session) or only counts (the counters-only session).
        self.spans = spans
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        # Pre-bound unlabeled counters (one attribute call per hit).
        metrics = self.metrics
        self._inc_world_switches = metrics.counter("trace.world_switches").inc
        # Bound-``inc`` caches for the labeled hot-path counters, keyed
        # by plain tuples (no sort, no stringification per call).
        self._kind_counters: Dict[str, Callable] = {}
        self._matrix_counters: Dict[tuple, Callable] = {}
        self._counters: Dict[tuple, Callable] = {}
        #: ``world_call.cycles``'s bound ``observe``, created with the
        #: first completed call (a session that saw none has no series).
        self._observe_call_cycles: Optional[Callable] = None
        #: Open begin/end brackets, innermost last: (span context
        #: manager or None, modeled cycles at the begin).
        self._brackets: List[tuple] = []

    @classmethod
    def lightweight(cls, label: str = "telemetry") -> "TelemetrySession":
        """The counters-only session: every counter and the
        ``world_call.cycles`` histogram, no span, instant or wall-clock
        read."""
        return cls(label, spans=False)

    # ------------------------------------------------------------------
    # the observer seam (none of the handlers touch the perf counters)
    # ------------------------------------------------------------------

    def on_event(self, event) -> None:
        """One :class:`~repro.observe.Event` from a datapath seam."""
        handler = self._HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    def _inc(self, key: tuple, names: Tuple[str, ...]) -> None:
        """Bump the counter of family ``key[0]`` whose labels ``names``
        take the values ``key[1:]``; the labels are built only the
        first time the key is seen."""
        inc = self._counters.get(key)
        if inc is None:
            inc = self._counters[key] = self.metrics.counter(
                key[0], **dict(zip(names, key[1:]))).inc
        inc()

    def _open(self, span, cycles: int = 0) -> None:
        if span is not None:
            span.__enter__()
        self._brackets.append((span, cycles))

    def _close(self) -> int:
        span, cycles = self._brackets.pop()
        if span is not None:
            span.__exit__(None, None, None)
        return cycles

    def _transition(self, event) -> None:
        """One :class:`~repro.hw.trace.TransitionEvent` was recorded."""
        event = event.ref
        kind = event.kind
        inc = self._kind_counters.get(kind)
        if inc is None:
            inc = self._kind_counters[kind] = self.metrics.counter(
                "trace.events", kind=kind).inc
        inc()
        key = (event.frm, event.to, kind)
        minc = self._matrix_counters.get(key)
        if minc is None:
            minc = self._matrix_counters[key] = self.metrics.counter(
                "trace.matrix", frm=event.frm, to=event.to, kind=kind).inc
        minc()
        if kind in WORLD_SWITCH_KINDS:
            self._inc_world_switches()
        if self.spans:
            self.tracer.instant(kind, seq=event.seq, frm=event.frm,
                                to=event.to, detail=event.detail,
                                cycles=event.cycles,
                                instructions=event.instructions)

    def _world_call_issue(self, event) -> None:
        """The CPU began a hardware ``world_call`` (it may still fault)."""
        self.metrics.counter("hw.world_call", cpu=event.ref.cpu_id).inc()

    def _wt_miss(self, event) -> None:
        self.metrics.counter("hw.wt_miss", cache=event.detail,
                             cpu=event.ref.cpu_id).inc()

    def _call_begin(self, event) -> None:
        """A :class:`~repro.core.call.WorldCallRuntime` call started:
        count it and, in a span session, open its span."""
        caller, callee = event.caller_wid, event.callee_wid
        self._inc(("core.world_calls", caller, callee),
                  ("caller_wid", "callee_wid"))
        self._open(self.tracer.span("world_call", category="core",
                                    cpu=event.ref, caller_wid=caller,
                                    callee_wid=callee)
                   if self.spans else None, event.cycles)

    def _call_end(self, event) -> None:
        """Close the call's bracket; a completed call also lands in the
        ``world_call.cycles`` latency histogram the observatory's SLO
        engine reads per window."""
        begin = self._close()
        if event.detail != "ok":
            return
        observe = self._observe_call_cycles
        if observe is None:
            observe = self._observe_call_cycles = self.metrics.histogram(
                "world_call.cycles").observe
        observe(event.cycles - begin)

    def _crossvm_begin(self, event) -> None:
        """A Figure-4 cross-VM round trip started (one span per round
        trip, traced or not)."""
        frm, to = event.frm, event.to
        self._inc(("core.crossvm_roundtrips", frm, to), ("frm", "to"))
        self._open(self.tracer.span("crossvm_roundtrip", category="core",
                                    cpu=event.ref, frm=frm, to=to)
                   if self.spans else None)

    def _redirect_begin(self, event) -> None:
        self._open(self.redirect_span(event.ref, event.detail))

    def _switchless_begin(self, event) -> None:
        """The switchless engine diverted one call (``detail`` is
        ``world`` or ``crossvm``)."""
        kind = event.detail
        self._inc(("switchless.calls", kind), ("kind",))
        if not self.spans:
            self._open(None)
            return
        if kind == "world":
            args = {"caller_wid": event.caller_wid,
                    "callee_wid": event.callee_wid}
        else:
            args = {"frm": event.frm, "to": event.to}
        self._open(self.tracer.span("switchless_call", category="switchless",
                                    cpu=event.ref, **args))

    def _end(self, event) -> None:
        self._close()

    def _fault_injected(self, event) -> None:
        self._inc(("faults.injected", event.site), ("site",))

    def _recovery(self, event) -> None:
        """A graceful-degradation policy activated: a ``recovery``
        record names it (revalidate, legacy_fallback, ...) in
        ``detail``; a ``marshal_repair`` is its own policy."""
        policy = event.detail if event.kind == "recovery" else event.kind
        self._inc(("faults.recoveries", policy), ("policy",))

    def _virq_inject(self, event) -> None:
        # Not ``_inc``: the vector label is the value formatted.
        key = ("hypervisor.virq_injected", event.ref, event.to)
        inc = self._counters.get(key)
        if inc is None:
            inc = self._counters[key] = self.metrics.counter(
                key[0], vector=f"{event.ref:#04x}", vm=event.to).inc
        inc()

    _HANDLERS = {
        "transition": _transition,
        "world_call_issue": _world_call_issue,
        "wt_miss": _wt_miss,
        "call_begin": _call_begin,
        "call_end": _call_end,
        "crossvm_begin": _crossvm_begin,
        "crossvm_end": _end,
        "redirect_begin": _redirect_begin,
        "redirect_end": _end,
        "switchless_begin": _switchless_begin,
        "switchless_end": _end,
        "fault_injected": _fault_injected,
        "recovery": _recovery,
        "marshal_repair": _recovery,
        "virq_inject": _virq_inject,
    }

    def absorb_stats(self, family: str, stats: Dict[str, int]) -> None:
        """Absorb an engine's totals at a quiescent point as
        ``<family>.<name>`` counters — the sweep runner passes each
        cell's switchless counters, the ``crossover fleet`` campaign
        cell its scheduler totals after the event loop drains."""
        for name, value in stats.items():
            if value:
                self.metrics.counter(f"{family}.{name}").inc(value)

    def redirect_span(self, system, op: str):
        """Count one redirected call; return the span bracketing it in
        a span session, ``None`` in a counters-only session."""
        name = system.name
        variant = system.variant
        self._inc(("system.redirects", name, variant), ("system", "variant"))
        if not self.spans:
            return None
        return self.tracer.span(f"{name}.redirect", category="system",
                                cpu=system.machine.cpu, op=op,
                                variant=variant)


# ---------------------------------------------------------------------------
# the process-global session switch (one slot on the observer bus)
# ---------------------------------------------------------------------------

def current() -> Optional[TelemetrySession]:
    """The installed session, or None."""
    return observe.current("telemetry")


def enabled() -> bool:
    """Whether a telemetry session is installed."""
    return observe.current("telemetry") is not None


def install(session: Optional[TelemetrySession] = None) -> TelemetrySession:
    """Install ``session`` (or a fresh one) as the process session."""
    return observe.install(
        "telemetry", session if session is not None else TelemetrySession())


def uninstall() -> Optional[TelemetrySession]:
    """Remove and return the installed session."""
    return observe.uninstall("telemetry")


def scoped(label: str = "telemetry",
           spans: bool = True) -> ContextManager[TelemetrySession]:
    """Install a fresh session (a span session unless ``spans=False``)
    for a ``with`` block, restoring whatever was installed before::

        with telemetry.scoped("trace-proxos") as session:
            run_workload()
        export.write_artifacts(session, outdir)
    """
    return observe.scoped("telemetry", TelemetrySession(label, spans))
