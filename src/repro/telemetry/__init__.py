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

* with telemetry **off**, the hooks are a dead branch: fast-path
  equivalence and all modeled counters are untouched;
* with telemetry **on**, collection only ever *reads* the perf
  counters and the trace — it never charges, so modeled instructions,
  cycles, per-event counts and world switches stay **bit-identical**
  to a telemetry-disabled run (only host wall-clock changes).

Sessions come in two shapes, selected by :class:`TelemetryConfig`:

* **tree** (default) — the full span forest, wall-clock captured;
  feeds the Chrome trace exporter and the cost-attribution profiler;
* **ring** (:meth:`TelemetrySession.lightweight`) — the always-on
  mode: every redirect still counts, but spans are *sampled* into a
  preallocated bounded :class:`~repro.telemetry.spans.SpanRing` with
  no wall-clock reads, keeping enabled overhead low enough to leave on.

Exporters (Chrome trace-event JSON, the world-switch crossing matrix,
the metrics snapshot) live in :mod:`repro.telemetry.export`; the
cost-attribution profiler in :mod:`repro.telemetry.profiler`.
``crossover audit --trace-out DIR`` and ``crossover-report --telemetry
DIR`` write their files.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import observe
from repro.hw.perf import WORLD_SWITCH_KINDS
from repro.telemetry.registry import (Counter, Gauge, Histogram,
                                      MetricsRegistry)
from repro.telemetry.spans import Span, SpanEvent, SpanRing, Tracer

__all__ = [
    "TelemetryConfig", "TelemetrySession", "MetricsRegistry",
    "Counter", "Gauge", "Histogram",
    "Tracer", "Span", "SpanEvent", "SpanRing",
    "current", "enabled", "install", "uninstall", "scoped",
]


class TelemetryConfig:
    """How a session collects spans.

    ``spans``        — ``"tree"`` (full span forest) or ``"ring"``
                       (sampled records in a bounded ring).
    ``ring_capacity``— ring slots preallocated in ring mode.
    ``capture_wall`` — read ``perf_counter_ns`` per span/instant.
    ``sample_every`` — in ring mode, record every Nth redirect span
                       (all redirects are still *counted*).
    """

    __slots__ = ("spans", "ring_capacity", "capture_wall", "sample_every")

    def __init__(self, spans: str = "tree", ring_capacity: int = 4096,
                 capture_wall: bool = True, sample_every: int = 1) -> None:
        if spans not in ("tree", "ring"):
            raise ValueError(f"spans must be 'tree' or 'ring', not {spans!r}")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.spans = spans
        self.ring_capacity = ring_capacity
        self.capture_wall = capture_wall
        self.sample_every = sample_every

    def to_dict(self) -> Dict[str, Any]:
        return {"spans": self.spans, "ring_capacity": self.ring_capacity,
                "capture_wall": self.capture_wall,
                "sample_every": self.sample_every}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetryConfig":
        return cls(**data)


class _RingSpan:
    """Context manager for one sampled redirect in ring mode.

    Snapshots the modeled clocks (plain int reads) on entry, pushes one
    ring record and one histogram observation on exit.  Never touches
    wall-clock unless the session asked for it.
    """

    __slots__ = ("_session", "_cpu", "_system", "_op", "_variant",
                 "_cycles", "_instructions", "_wall")

    def __init__(self, session: "TelemetrySession", cpu, system: str,
                 op: str, variant: str) -> None:
        self._session = session
        self._cpu = cpu
        self._system = system
        self._op = op
        self._variant = variant
        self._cycles = 0
        self._instructions = 0
        self._wall = 0

    def __enter__(self) -> "_RingSpan":
        perf = self._cpu.perf
        self._cycles = perf.cycles
        self._instructions = perf.instructions
        if self._session.config.capture_wall:
            self._wall = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        session = self._session
        perf = self._cpu.perf
        cycles = perf.cycles - self._cycles
        instructions = perf.instructions - self._instructions
        wall = 0
        if session.config.capture_wall:
            wall = time.perf_counter_ns() - self._wall
        assert session.span_ring is not None
        session.span_ring.push((self._system, self._op, self._variant,
                                cycles, instructions, wall))
        system, variant = self._system, self._variant
        session._histogram(("system.redirect_cycles", system, variant),
                           "system.redirect_cycles", system=system,
                           variant=variant)(cycles)


class TelemetrySession:
    """All telemetry collected between :func:`install` and
    :func:`uninstall`.

    Observes the datapath through :meth:`on_event` (see
    :mod:`repro.observe`).  The handlers are deliberately
    allocation-light: every labeled counter the hot paths touch is
    resolved once and its bound ``inc`` method cached under a plain
    tuple, skipping the registry's label canonicalization on every call.
    """

    def __init__(self, label: str = "telemetry",
                 config: Optional[TelemetryConfig] = None) -> None:
        self.label = label
        self.config = config if config is not None else TelemetryConfig()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(capture_wall=self.config.capture_wall)
        self.span_ring: Optional[SpanRing] = (
            SpanRing(self.config.ring_capacity)
            if self.config.spans == "ring" else None)
        self._redirects_seen = 0
        # Pre-bound unlabeled counters (one attribute call per hit).
        metrics = self.metrics
        self._inc_world_switches = metrics.counter("trace.world_switches").inc
        self._inc_fused_batches = metrics.counter("fused.batches").inc
        self._inc_fused_switches = metrics.counter(
            "fused.world_switches").inc
        # Bound-``inc`` caches for the labeled hot-path counters, keyed
        # by plain tuples (no sort, no stringification per call).
        self._kind_counters: Dict[str, Callable] = {}
        self._matrix_counters: Dict[tuple, Callable] = {}
        self._counters: Dict[tuple, Callable] = {}
        self._histograms: Dict[tuple, Callable] = {}
        #: Open begin/end brackets, innermost last: (span context
        #: manager or None, modeled cycles at the begin).
        self._brackets: List[tuple] = []
        #: The xray trace id published for the call about to end.
        self._exemplar: Optional[str] = None

    @classmethod
    def lightweight(cls, label: str = "telemetry") -> "TelemetrySession":
        """The always-on profile: counters fully on, spans sampled into
        a bounded ring, no wall-clock reads."""
        return cls(label, TelemetryConfig(spans="ring", ring_capacity=4096,
                                          capture_wall=False,
                                          sample_every=64))

    # ------------------------------------------------------------------
    # the observer seam (none of the handlers touch the perf counters)
    # ------------------------------------------------------------------

    def on_event(self, event) -> None:
        """One :class:`~repro.observe.Event` from a datapath seam."""
        handler = self._HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    def _inc(self, key: tuple, family: str, **labels: Any) -> None:
        inc = self._counters.get(key)
        if inc is None:
            inc = self._counters[key] = self.metrics.counter(
                family, **labels).inc
        inc()

    def _histogram(self, key: tuple, family: str, **labels: Any) -> Callable:
        observe = self._histograms.get(key)
        if observe is None:
            observe = self._histograms[key] = self.metrics.histogram(
                family, **labels).observe
        return observe

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
        if self.span_ring is None:
            self.tracer.instant(kind, seq=event.seq, frm=event.frm,
                                to=event.to, detail=event.detail,
                                cycles=event.cycles,
                                instructions=event.instructions)

    def _fused(self, event) -> None:
        """One :class:`~repro.hw.fused.FusedCharge` batch was applied."""
        self._inc_fused_batches()
        self._inc_fused_switches(event.ref.world_switches)

    def _world_call_issue(self, event) -> None:
        """The CPU began a hardware ``world_call`` (it may still fault)."""
        self.metrics.counter("hw.world_call", cpu=event.ref.cpu_id).inc()

    def _wt_miss(self, event) -> None:
        self.metrics.counter("hw.wt_miss", cache=event.detail,
                             cpu=event.ref.cpu_id).inc()

    def _call_begin(self, event) -> None:
        """A :class:`~repro.core.call.WorldCallRuntime` call started:
        count it and open its span (modeled cycles + wall-clock)."""
        caller, callee = event.caller_wid, event.callee_wid
        self._inc(("core.world_calls", caller, callee), "core.world_calls",
                  caller_wid=caller, callee_wid=callee)
        self._open(self.tracer.span("world_call", category="core",
                                    cpu=event.ref, caller_wid=caller,
                                    callee_wid=callee), event.cycles)

    def _exemplar_id(self, event) -> None:
        """xray sampled the call about to end (it is dispatched ahead
        of telemetry, see :data:`repro.observe.ORDER`)."""
        self._exemplar = event.detail

    def _call_end(self, event) -> None:
        """Close the call's span; a completed call also lands in the
        ``world_call.cycles`` latency histogram the observatory's SLO
        engine reads per window, with xray's trace id (if any) as the
        bucket's exemplar."""
        begin = self._close()
        exemplar, self._exemplar = self._exemplar, None
        if event.detail != "ok":
            return
        self._histogram(("world_call.cycles",), "world_call.cycles")(
            event.cycles - begin, exemplar)

    def _crossvm_begin(self, event) -> None:
        """A Figure-4 cross-VM round trip started (one span per round
        trip, covering the fused path too)."""
        frm, to = event.frm, event.to
        self._inc(("core.crossvm_roundtrips", frm, to),
                  "core.crossvm_roundtrips", frm=frm, to=to)
        self._open(self.tracer.span("crossvm_roundtrip", category="core",
                                    cpu=event.ref, frm=frm, to=to))

    def _redirect_begin(self, event) -> None:
        self._open(self.redirect_span(event.ref, event.detail))

    def _switchless_begin(self, event) -> None:
        """The switchless engine diverted one call (``detail`` is
        ``world`` or ``crossvm``)."""
        kind = event.detail
        self._inc(("switchless.calls", kind), "switchless.calls", kind=kind)
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
        site = event.site
        self._inc(("faults.injected", site), "faults.injected", site=site)

    def _recovery(self, event) -> None:
        """A graceful-degradation policy activated: a ``recovery``
        record names it (revalidate, legacy_fallback, ...) in
        ``detail``; a ``marshal_repair`` is its own policy."""
        policy = event.detail if event.kind == "recovery" else event.kind
        self._inc(("faults.recoveries", policy), "faults.recoveries",
                  policy=policy)

    def _virq_inject(self, event) -> None:
        vector, vm = event.ref, event.to
        self._inc(("hypervisor.virq_injected", vector, vm),
                  "hypervisor.virq_injected", vector=f"{vector:#04x}", vm=vm)

    _HANDLERS = {
        "transition": _transition,
        "fused": _fused,
        "world_call_issue": _world_call_issue,
        "wt_miss": _wt_miss,
        "call_begin": _call_begin,
        "exemplar": _exemplar_id,
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
        """Span (or ``None``) bracketing one redirected call.

        Counts the redirect always; returns a context manager only when
        this call should be *spanned* — every call in tree mode, every
        ``sample_every``-th call in ring mode.  Callers run the redirect
        bare when this returns ``None``.
        """
        name = system.name
        variant = system.variant
        self._inc(("system.redirects", name, variant), "system.redirects",
                  system=name, variant=variant)
        if self.span_ring is None:
            return self.tracer.span(f"{name}.redirect", category="system",
                                    cpu=system.machine.cpu, op=op,
                                    variant=variant)
        self._redirects_seen += 1
        if self._redirects_seen % self.config.sample_every:
            return None
        return _RingSpan(self, system.machine.cpu, name, op, variant)

    # ------------------------------------------------------------------
    # worker merge (parallel sweeps)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form of the whole session (picklable/JSON-able)."""
        return {
            "label": self.label,
            "config": self.config.to_dict(),
            "metrics": self.metrics.snapshot(),
            "spans": [s.to_dict() for s in self.tracer.roots],
            "dropped": self.tracer.dropped,
            "ring": (self.span_ring.to_dict()
                     if self.span_ring is not None else None),
        }

    def absorb(self, data: Dict[str, Any],
               pid: Optional[int] = None) -> None:
        """Merge a worker session's :meth:`to_dict` payload: counters
        and histograms add into the registry, span trees are adopted
        (tagged with the worker ``pid`` for the Chrome export), ring
        records append to this session's ring."""
        self.metrics.merge_snapshot(data.get("metrics", {}))
        for span_data in data.get("spans", []):
            span = Span.from_dict(span_data)
            if pid is not None:
                for sub in span.iter_spans():
                    if sub.pid is None:
                        sub.pid = pid
            self.tracer.adopt(span)
        self.tracer.dropped += data.get("dropped", 0)
        ring_data = data.get("ring")
        if ring_data is not None:
            if self.span_ring is None:
                self.span_ring = SpanRing(ring_data.get("capacity", 4096))
            self.span_ring.absorb(ring_data)


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


@contextlib.contextmanager
def scoped(label: str = "telemetry",
           config: Optional[TelemetryConfig] = None
           ) -> Iterator[TelemetrySession]:
    """Install a fresh session for a ``with`` block, restoring whatever
    was installed before::

        with telemetry.scoped("trace-proxos") as session:
            run_workload()
        export.write_artifacts(session, outdir)

    With no explicit ``config`` the new session inherits the *current*
    session's config (so cells scoped inside a lightweight sweep stay
    lightweight), falling back to the tree default.
    """
    previous = current()
    if config is None and previous is not None:
        config = previous.config
    with observe.scoped("telemetry",
                        TelemetrySession(label, config)) as session:
        yield session
