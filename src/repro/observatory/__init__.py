"""``repro.observatory``: time-resolved telemetry on the modeled clock.

Every other observer in this codebase answers *how much*: end-of-run
metric snapshots, profiles, audit logs.  The observatory answers
**when**: it samples deltas of every registry counter (plus subsystem
stats — switchless occupancy and flips, fault injections and
recoveries, audit denials) into fixed-width windows on the
**modeled-cycle clock**, and pins discrete events (policy flip, fault
injection, recovery, audit denial) to the window they happened in — so
a jump in
cycles/call is attributable to the event that preceded it.

Mechanics.  :class:`~repro.hw.perf.PerfCounters` carries a
next-boundary threshold; ``charge``/``charge_batch`` compare the cycle
accumulator against it — one attribute read and one integer compare
when dormant, the same zero-cost discipline as every other subsystem
global here.  When the threshold trips, the observatory advances its
cumulative clock, re-arms the threshold, and takes one sample: the
current registry snapshot (when a telemetry session is installed) and
the live subsystem stat taps, differenced against the previous sample.
Because the clock is modeled and every sampled value is modeled, the
windows are deterministic: byte-identical at 1, 2 or 4 pool workers
when each cell runs under its own spawned observatory and the parent
absorbs the payloads in spec order (see :mod:`repro.analysis.parallel`).

Conservation invariant: the final partial window is flushed at
uninstall, so for every counter ``baseline + sum(window deltas) ==
end-of-run flat value`` — :func:`repro.observatory.store.crosscheck`
verifies it and ``crossover observatory`` exits nonzero on a mismatch.

Install the observatory *inside* the telemetry session it should
observe (sources are expected to be freshly zeroed or already-sampled
when adopted; the cell runner guarantees this ordering).  On top of
the store sit the SLO engine (:mod:`repro.observatory.slo`), the
exporters (:mod:`repro.observatory.exporters`) and the
``crossover observatory`` campaign (:mod:`repro.observatory.campaign`).

This package is a leaf: it must not import the machine stack — or any
subsystem that imports *it* (hw.perf, switchless, faults, audit)
— at module top, only lazily inside functions.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional

from repro import observe
from repro.observatory.store import CLIP_COUNTER, WindowStore, crosscheck

__all__ = [
    "Observatory", "WindowStore", "crosscheck",
    "current", "enabled", "install", "uninstall", "scoped",
    "DEFAULT_WINDOW_CYCLES", "MAX_WINDOWS",
]

#: Default window width on the modeled-cycle clock (~29 us at the
#: modeled 3.4 GHz): narrow enough that the bursty campaign's idle gaps
#: (120k-240k cycles) separate phases into distinct windows.
DEFAULT_WINDOW_CYCLES = 100_000

#: Ring bound on retained windows (later samples fold into the newest
#: retained window, counted as ``clipped``).
MAX_WINDOWS = 4096

#: ``PerfCounters._obs_next`` sentinel: no observatory is watching this
#: counter, so the per-charge compare can never fire.
_OBS_DISABLED = 1 << 62


class Observatory:
    """One recording: clock, window store, event taps, cell payloads."""

    def __init__(self, label: str = "observatory") -> None:
        self.label = label
        self.store = WindowStore(DEFAULT_WINDOW_CYCLES, MAX_WINDOWS)
        #: Cumulative modeled cycles observed (advances at boundaries).
        self.clock = 0
        #: Per-cell payloads absorbed in spec order (parent role).
        self.cells: List[Dict[str, Any]] = []
        self._perf = None           # most recently adopted PerfCounters
        self._flushed = False
        #: group -> source object sampled last time (identity-tracked:
        #: a swapped source is assumed freshly zeroed, which every
        #: engine/session in this codebase is at install time).
        self._sources: Dict[str, Any] = {}
        #: group -> {key: raw value at last sample}
        self._prev: Dict[str, Dict[str, Any]] = {}
        self._prev_hists: Dict[str, Dict[str, Any]] = {}
        #: Registry counters at creation — the crosscheck baseline for
        #: an observatory installed under an already-running session.
        self._baseline: Dict[str, int] = {}
        self._totals: Dict[str, int] = {}
        self._rebase()

    # -- clock plumbing (called from repro.hw.perf) --------------------

    def adopt(self, perf, cycles: Optional[int] = None) -> None:
        """Start (or re-anchor) window accounting for one perf counter.

        Called when a :class:`~repro.hw.perf.PerfCounters` is built or
        reset while this observatory is installed.  The counter's cycle
        domain is mapped onto the observatory clock via a per-counter
        base, so machines created mid-recording (each restarting at
        cycle 0) extend the same time axis instead of rewinding it.
        ``cycles`` is the counter value to anchor at (default: its
        current one; a reset anchors at the 0 it is about to zero to).
        """
        if cycles is None:
            cycles = perf.cycles
        perf._obs = self
        perf._obs_anchor = cycles
        perf._obs_base = self.clock - cycles
        perf._obs_next = cycles + DEFAULT_WINDOW_CYCLES
        self._perf = perf

    def on_boundary(self, perf) -> None:
        """A perf counter crossed its window threshold: advance the
        clock, re-arm, and take one sample."""
        if self._flushed:
            perf._obs = None
            perf._obs_next = _OBS_DISABLED
            return
        delta = perf.cycles - perf._obs_anchor
        index = self.clock // DEFAULT_WINDOW_CYCLES
        self.clock += delta
        perf._obs_anchor = perf.cycles
        perf._obs_base = self.clock - perf.cycles
        perf._obs_next = perf.cycles + DEFAULT_WINDOW_CYCLES
        self._perf = perf
        self._sample(index, delta)

    def flush(self) -> None:
        """Sample the final partial window (idempotent).

        Must run while the observed sources (telemetry session,
        subsystem engines) are still installed — :func:`uninstall` and
        :func:`scoped` call it, and the cell runner calls it before the
        cell's scoped session unwinds.
        """
        if self._flushed:
            return
        perf = self._perf
        delta = 0
        if perf is not None and getattr(perf, "_obs", None) is self:
            delta = perf.cycles - perf._obs_anchor
            perf._obs_anchor = perf.cycles
            perf._obs = None
            perf._obs_next = _OBS_DISABLED
        index = self.clock // DEFAULT_WINDOW_CYCLES
        self.clock += delta
        self._sample(index, delta)
        self._totals = dict(self._collect_registry()[1])
        self._flushed = True

    # -- the observer seam ---------------------------------------------

    def on_event(self, event) -> None:
        """One :class:`~repro.observe.Event` from a datapath seam."""
        handler = self._HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    def _now(self) -> int:
        """Current position on the observatory clock."""
        perf = self._perf
        if perf is not None and getattr(perf, "_obs", None) is self:
            return perf._obs_base + perf.cycles
        return self.clock

    def _perf_counters(self, event) -> None:
        """A perf counter was built while this observatory watches."""
        self.adopt(event.ref)

    def _perf_reset(self, event) -> None:
        """A perf counter is about to zero: sample its un-sampled tail
        (a stale anchor would mis-size the next window delta), then
        re-anchor it onto the zeroed cycle domain."""
        perf = event.ref
        if perf._obs is self:
            self.on_boundary(perf)
        self.adopt(perf, cycles=0)

    def _flip(self, event) -> None:
        """A switchless adaptive-policy flip (machine-domain stamp)."""
        perf = self._perf
        base = (perf._obs_base
                if perf is not None and getattr(perf, "_obs", None) is self
                else 0)
        self.store.add_event("switchless.flip", event.site, event.detail,
                             base + event.cycles)

    def _fault(self, event) -> None:
        self.store.add_event("fault.injected", event.site, "", self._now())

    def _recovery(self, event) -> None:
        """A graceful-degradation policy activated (a ``marshal_repair``
        is its own policy)."""
        policy = event.detail if event.kind == "recovery" else event.kind
        self.store.add_event("fault.recovery", policy, "", self._now())

    def _anomaly(self, event) -> None:
        """The flight recorder logged a denial — the online anomaly
        signal (the full detectors stay offline)."""
        self.store.add_event("audit.anomaly", event.site, event.detail,
                             self._now())

    _HANDLERS = {
        "perf_counters": _perf_counters,
        "perf_reset": _perf_reset,
        "flip": _flip,
        "fault_injected": _fault,
        "recovery": _recovery,
        "marshal_repair": _recovery,
        "anomaly": _anomaly,
    }

    # -- sampling ------------------------------------------------------

    def _collect_registry(self):
        """(source, counters, gauges, histograms) from the installed
        telemetry session's registry (empty when none)."""
        from repro import telemetry
        session = telemetry.current()
        if session is None:
            return None, {}, {}, {}
        snap = session.metrics.snapshot()
        return session, snap["counters"], snap["gauges"], snap["histograms"]

    def _collect_subsystems(self):
        """``{group: (source, counters, gauges)}`` from the live
        subsystem stat taps."""
        from repro import audit as _audit
        from repro import faults as _faults
        from repro import switchless as _switchless
        groups: Dict[str, Any] = {}
        sl = _switchless._engine
        if sl is not None:
            counters = {f"switchless.{name}": value for name, value
                        in sl.stats.to_dict().items()}
            counters["switchless.flips"] = len(sl.policy.flips)
            gauges = {f"switchless.{name}": value for name, value
                      in sl.tuning().items()}
            groups["switchless"] = (sl, counters, gauges)
        fe = _faults._engine
        if fe is not None:
            counters = {f"faults.fired.{site}": fired for site, fired
                        in fe.fired_counts().items()}
            groups["faults"] = (fe, counters, {})
        recorder = _audit.current()
        if recorder is not None:
            counters = {f"audit.{name}": value for name, value
                        in recorder.stats().items()}
            groups["audit"] = (recorder, counters, {})
        return groups

    @staticmethod
    def _diff(current: Dict[str, Any],
              prev: Dict[str, Any]) -> Dict[str, Any]:
        return {key: value - prev.get(key, 0)
                for key, value in current.items()
                if value != prev.get(key, 0)}

    def _group_prev(self, group: str, source: Any) -> Dict[str, Any]:
        """The group's previous raw sample — reset to zero when the
        source object's identity changed (sources are born zeroed in
        this codebase, so a fresh engine or session swapped in
        mid-recording contributes its full counts, and a detached one
        simply stops contributing)."""
        if self._sources.get(group) is not source:
            self._sources[group] = source
            self._prev[group] = {}
            if group == "registry":
                self._prev_hists = {}
        return self._prev.get(group, {})

    @staticmethod
    def _raw_hists(histograms: Dict[str, Dict[str, Any]]
                   ) -> Dict[str, Dict[str, Any]]:
        return {
            key: {"bounds": [b for b, _ in data["buckets"]],
                  "counts": [c for _, c in data["buckets"]],
                  "count": data["count"], "sum": data["total"],
                  "overflow": data["overflow"]}
            for key, data in histograms.items()}

    def _hist_delta(self, histograms: Dict[str, Dict[str, Any]]
                    ) -> Dict[str, Dict[str, Any]]:
        """Per-histogram bucket deltas since the previous sample (call
        :meth:`_group_prev` for the registry group first)."""
        out: Dict[str, Dict[str, Any]] = {}
        for key, data in histograms.items():
            prev = self._prev_hists.get(key)
            prev_count = prev["count"] if prev else 0
            if data["count"] == prev_count:
                continue
            bounds = [b for b, _ in data["buckets"]]
            counts = [c for _, c in data["buckets"]]
            if prev is not None and prev["bounds"] == bounds:
                counts = [c - p for c, p in zip(counts, prev["counts"])]
                overflow = data["overflow"] - prev["overflow"]
                total = data["total"] - prev["sum"]
                count = data["count"] - prev_count
            else:
                overflow = data["overflow"]
                total = data["total"]
                count = data["count"]
            out[key] = {"bounds": bounds, "counts": counts,
                        "count": count, "sum": total,
                        "overflow": overflow}
        self._prev_hists = self._raw_hists(histograms)
        return out

    def _rebase(self) -> None:
        """Eager baseline: adopt the current sources' raw values so the
        first window only sees activity after installation."""
        session, counters, gauges, histograms = self._collect_registry()
        self._sources["registry"] = session
        self._prev["registry"] = dict(counters)
        self._baseline = dict(counters)
        self._prev_hists = self._raw_hists(histograms)
        for group, (source, gcounters, _gauges) in \
                self._collect_subsystems().items():
            self._sources[group] = source
            self._prev[group] = dict(gcounters)

    def _sample(self, index: int, cycles: int) -> None:
        session, counters, gauges, histograms = self._collect_registry()
        prev = self._group_prev("registry", session)
        counter_deltas = self._diff(counters, prev)
        self._prev["registry"] = dict(counters)
        hist_deltas = self._hist_delta(histograms)
        sub_deltas: Dict[str, Any] = {}
        gauges = dict(gauges)
        for group, (source, gcounters, ggauges) in \
                self._collect_subsystems().items():
            gprev = self._group_prev(group, source)
            sub_deltas.update(self._diff(gcounters, gprev))
            self._prev[group] = dict(gcounters)
            gauges.update(ggauges)
        if not cycles and not counter_deltas and not hist_deltas \
                and not sub_deltas:
            return  # nothing happened (idle flush): no empty window
        self.store.record(index, cycles, counter_deltas, gauges,
                          hist_deltas, sub_deltas)

    def reset(self) -> None:
        """Drop everything recorded so far and start a fresh recording.

        Windows, events, absorbed cells, the cumulative clock and the
        baseline all rewind; the current sources' raw values become the
        new baseline (so the next window only sees activity after the
        reset), and a still-adopted perf counter is re-anchored onto
        the rewound clock.
        """
        perf = self._perf
        self.store = WindowStore(DEFAULT_WINDOW_CYCLES, MAX_WINDOWS)
        self.clock = 0
        self.cells = []
        self._flushed = False
        self._sources = {}
        self._prev = {}
        self._prev_hists = {}
        self._baseline = {}
        self._totals = {}
        self._rebase()
        if perf is not None:
            self.adopt(perf)

    # -- per-cell fan-out ----------------------------------------------

    def spawn(self) -> "Observatory":
        """A fresh observatory with the same label, for one cell."""
        return Observatory(self.label)

    def absorb_cell(self, payload: Dict[str, Any], runner: str,
                    args: tuple) -> None:
        """Adopt one cell's shipped-back payload (spec order)."""
        self.cells.append(dict(payload, runner=runner, args=list(args)))

    # -- export --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data payload (flushes the final partial window).

        Shape: label/config/clock, the windows and events, the
        registry-counter ``baseline``/``totals`` pair, the computed
        ``crosscheck``, and any absorbed per-cell payloads.
        """
        self.flush()
        totals = {k: self._totals[k] for k in sorted(self._totals)}
        if self.store.clipped:
            # The clip counter lives in the folded window, not the
            # registry; mirror it into totals so the conservation
            # crosscheck balances (baseline 0 + window sum == total).
            totals[CLIP_COUNTER] = (totals.get(CLIP_COUNTER, 0)
                                    + self.store.clipped)
        payload: Dict[str, Any] = {
            "label": self.label,
            "config": {"window_cycles": DEFAULT_WINDOW_CYCLES,
                       "max_windows": MAX_WINDOWS},
            "clock": self.clock,
            "clipped": self.store.clipped,
            "windows": self.store.to_windows(),
            "events": self.store.to_events(),
            "baseline": {k: self._baseline[k]
                         for k in sorted(self._baseline)},
            "totals": totals,
        }
        payload["crosscheck"] = crosscheck(payload)
        if self.cells:
            payload["cells"] = [dict(cell) for cell in self.cells]
        return payload


# ---------------------------------------------------------------------------
# the process-global switch (one slot on the observer bus)
# ---------------------------------------------------------------------------

def current() -> Optional[Observatory]:
    """The installed observatory, or None."""
    return observe.current("observatory")


def enabled() -> bool:
    """Whether an observatory is installed."""
    return observe.current("observatory") is not None


def install(observatory: Optional[Observatory] = None) -> Observatory:
    """Install ``observatory`` (or a fresh one) process-wide."""
    return observe.install(
        "observatory",
        observatory if observatory is not None else Observatory())


def uninstall() -> Optional[Observatory]:
    """Flush, remove and return the installed observatory."""
    observatory = observe.uninstall("observatory")
    if observatory is not None:
        observatory.flush()
    return observatory


@contextlib.contextmanager
def scoped(observatory: Optional[Observatory] = None,
           label: str = "observatory") -> Iterator[Observatory]:
    """Install an observatory for a ``with`` block (flushing it on
    exit), restoring whatever was installed before::

        with telemetry.scoped("run") as session:
            with observatory.scoped() as obs:
                run_workload()
            payload = obs.to_dict()
    """
    if observatory is None:
        observatory = Observatory(label)
    with observe.scoped("observatory", observatory):
        try:
            yield observatory
        finally:
            observatory.flush()


def _boundary(perf) -> None:
    """The ``PerfCounters.charge`` seam: route a tripped threshold to
    the installed observatory, or disarm a stale adoption."""
    obs = current()
    if obs is None:
        perf._obs = None
        perf._obs_next = _OBS_DISABLED
        return
    if getattr(perf, "_obs", None) is not obs:
        # The counter outlived the observatory that adopted it (or was
        # built under a different one): re-anchor into the current
        # recording from here on.
        obs.adopt(perf)
        return
    obs.on_boundary(perf)
