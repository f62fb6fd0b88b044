"""The windowed series store: fixed-width windows on the modeled clock.

A :class:`WindowStore` holds what one :class:`~repro.observatory.
Observatory` sampled: per-window **deltas** of registry counters and
histogram buckets, per-window gauge values, per-window subsystem stat
deltas, and the event timeline.  Everything in here is plain modeled
data — no wall-clock, no PIDs, no RNG — so the same workload fills the
same windows byte-for-byte at any pool worker count.

Window semantics:

* the time axis is the observatory's cumulative modeled-cycle clock;
  window ``k`` covers ``[k * window_cycles, (k + 1) * window_cycles)``;
* a sample taken when the clock crosses a boundary attributes the
  whole delta since the previous sample to the window that was open
  when the activity started (a single charge can jump several windows;
  its delta is not smeared retroactively);
* the final partial window is flushed at uninstall so the per-window
  deltas of every counter sum *exactly* to the end-of-run flat
  counters — :func:`crosscheck` verifies that invariant and the
  ``crossover observatory`` campaign exits nonzero when it fails.

This module is a leaf: stdlib imports only (the percentile math is
borrowed lazily from :mod:`repro.telemetry.registry` at export time).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

#: Histogram delta fields carried per window (derived stats are
#: recomputed at export from the delta buckets).
_HIST_FIELDS = ("count", "sum", "overflow")

#: Counter name recording window-cap folds (see ``WindowStore._window``).
CLIP_COUNTER = "observatory.windows_clipped"


def _percentile(bounds, counts, count, overflow, p) -> Optional[float]:
    from repro.telemetry.registry import bucket_percentile
    return bucket_percentile(tuple(bounds), list(counts) + [overflow],
                             count, p)


class WindowStore:
    """Per-window deltas, gauges and events for one observatory."""

    def __init__(self, window_cycles: int, max_windows: int = 4096) -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        if max_windows <= 0:
            raise ValueError("max_windows must be positive")
        self.window_cycles = window_cycles
        self.max_windows = max_windows
        #: window index -> {"counters", "gauges", "histograms",
        #: "subsystems", "cycles"}
        self._windows: Dict[int, Dict[str, Any]] = {}
        self._events: List[Dict[str, Any]] = []
        #: samples folded into the last retained window past the bound.
        self.clipped = 0

    # -- recording -----------------------------------------------------

    def _window(self, index: int) -> Dict[str, Any]:
        window = self._windows.get(index)
        if window is None:
            if index not in self._windows and \
                    len(self._windows) >= self.max_windows:
                # Bounded store: past the cap, later samples fold into
                # the newest retained window.  The fold is no longer
                # silent: each one bumps a per-window counter (summed
                # into ``totals`` at export so the conservation
                # crosscheck still balances) and the first one pins a
                # timeline event — a long fleet horizon that outgrew
                # the ring is visible in the artifact, not just as a
                # quietly smeared last window.
                fold_into = max(self._windows)
                if self.clipped == 0:
                    self.add_event(
                        "observatory.clip", "windows",
                        f"window cap {self.max_windows} reached; "
                        f"folding window {index}+ into {fold_into}",
                        fold_into * self.window_cycles)
                self.clipped += 1
                window = self._windows[fold_into]
                counters = window["counters"]
                counters[CLIP_COUNTER] = counters.get(CLIP_COUNTER, 0) + 1
                return window
            window = self._windows[index] = {
                "counters": {}, "gauges": {}, "histograms": {},
                "subsystems": {}, "cycles": 0}
        return window

    def record(self, index: int, cycles: int,
               counters: Mapping[str, int],
               gauges: Mapping[str, float],
               histograms: Mapping[str, Dict[str, Any]],
               subsystems: Mapping[str, float]) -> None:
        """Fold one sample's deltas into window ``index``.

        ``counters`` / ``histograms`` / ``subsystems`` are deltas since
        the previous sample (added); ``gauges`` are point-in-time
        values (last write wins); ``cycles`` is the clock advance the
        sample covered.
        """
        window = self._window(index)
        window["cycles"] += cycles
        wc = window["counters"]
        for key, delta in counters.items():
            wc[key] = wc.get(key, 0) + delta
        window["gauges"].update(gauges)
        wh = window["histograms"]
        for key, delta in histograms.items():
            entry = wh.get(key)
            if entry is None:
                wh[key] = {
                    "bounds": list(delta["bounds"]),
                    "counts": list(delta["counts"]),
                    "count": delta["count"],
                    "sum": delta["sum"],
                    "overflow": delta["overflow"],
                }
                continue
            if entry["bounds"] != list(delta["bounds"]):
                raise ValueError(
                    f"histogram {key!r} bucket ladder changed "
                    "mid-window; refusing to merge")
            entry["counts"] = [a + b for a, b in
                               zip(entry["counts"], delta["counts"])]
            for field in _HIST_FIELDS:
                entry[field] += delta[field]
        ws = window["subsystems"]
        for key, delta in subsystems.items():
            ws[key] = ws.get(key, 0) + delta

    def add_event(self, kind: str, label: str, detail: str,
                  cycles: int) -> None:
        """Pin one discrete event to its window on the modeled clock."""
        self._events.append({
            "kind": kind,
            "label": label,
            "detail": detail,
            "cycles": cycles,
            "window": max(0, cycles) // self.window_cycles,
        })

    # -- introspection -------------------------------------------------

    def window_count(self) -> int:
        return len(self._windows)

    def event_count(self) -> int:
        return len(self._events)

    # -- export --------------------------------------------------------

    def to_windows(self) -> List[Dict[str, Any]]:
        """The windows as a sorted plain-data list, with per-window
        p50/p90/p99/p999 derived from the delta buckets."""
        out: List[Dict[str, Any]] = []
        for index in sorted(self._windows):
            window = self._windows[index]
            histograms = {}
            for key in sorted(window["histograms"]):
                entry = window["histograms"][key]
                count = entry["count"]
                histograms[key] = {
                    "count": count,
                    "sum": entry["sum"],
                    "mean": (entry["sum"] / count) if count else None,
                    "p50": _percentile(entry["bounds"], entry["counts"],
                                       count, entry["overflow"], 50),
                    "p90": _percentile(entry["bounds"], entry["counts"],
                                       count, entry["overflow"], 90),
                    "p99": _percentile(entry["bounds"], entry["counts"],
                                       count, entry["overflow"], 99),
                    "p999": _percentile(entry["bounds"], entry["counts"],
                                        count, entry["overflow"], 99.9),
                }
            out.append({
                "index": index,
                "start_cycles": index * self.window_cycles,
                "cycles": window["cycles"],
                "counters": {k: window["counters"][k]
                             for k in sorted(window["counters"])},
                "gauges": {k: window["gauges"][k]
                           for k in sorted(window["gauges"])},
                "histograms": histograms,
                "subsystems": {k: window["subsystems"][k]
                               for k in sorted(window["subsystems"])},
            })
        return out

    def to_events(self) -> List[Dict[str, Any]]:
        return [dict(event) for event in self._events]


def crosscheck(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Verify one observatory payload's conservation invariant.

    For every registry counter, ``baseline + sum(per-window deltas)``
    must equal the end-of-run flat value in ``totals`` — sampling must
    neither drop nor invent a single count.  Returns ``{"ok", "checked",
    "mismatches"}``; the campaign turns ``ok: false`` into a nonzero exit.
    """
    baseline = payload.get("baseline", {})
    totals = payload.get("totals", {})
    summed: Dict[str, int] = {}
    for window in payload.get("windows", []):
        for key, delta in window.get("counters", {}).items():
            summed[key] = summed.get(key, 0) + delta
    mismatches: List[Dict[str, Any]] = []
    for key in sorted(set(summed) | set(totals) | set(baseline)):
        expected = totals.get(key, 0)
        actual = baseline.get(key, 0) + summed.get(key, 0)
        if actual != expected:
            mismatches.append({"counter": key, "windows_sum": actual,
                               "flat": expected})
    return {
        "ok": not mismatches,
        "checked": len(set(summed) | set(totals)),
        "mismatches": mismatches,
    }

