"""Declarative SLOs with multi-window burn-rate alerts.

An objective is one line of grammar::

    <series>.<stat> <op> <threshold>

e.g. ``world_call.cycles.p99 < 600`` — evaluated against every window
of an observatory payload.  ``<series>`` names a registry series
(exact rendered key like ``switchless.calls{kind=world}``, or a bare
family name, in which case every matching series in the window is
merged first), ``<stat>`` picks what to read from it:

========  ==========================================================
stat      meaning (per window)
========  ==========================================================
count     histogram observation count / counter delta
sum       histogram value sum / counter delta (alias)
mean      histogram mean over the window's delta buckets
p50 ...   p50 / p90 / p99 / p999 from the window's delta buckets
rate      counter delta divided by window cycles (per modeled cycle)
value     gauge value (also subsystem stat delta)
max       histogram upper-bucket conservative max (p999 alias)
========  ==========================================================

and ``<op>`` is one of ``< <= > >=``.

Alerting follows the multi-window burn-rate recipe: each window is
*good* or *bad* (windows where the series is absent are skipped, not
bad), the short (default 4-window) and long (default 16-window)
trailing bad fractions are computed per window, and an alert **fires
on the rising edge** of ``short >= fast_burn and long >= slow_burn``.
Everything is modeled data, so alerts are deterministic and

``evaluate_slos`` is report-only; the CLI's ``--strict`` turns fired
alerts into a nonzero exit.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.observatory.store import _percentile

__all__ = ["SloObjective", "evaluate_slos", "STATS", "OPS"]

#: Recognized trailing stats, longest-match-first when parsing.
STATS = ("p999", "p50", "p90", "p99", "mean", "rate", "count", "sum",
         "value", "max")

OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Default burn-rate windows and thresholds: fire when at least half of
#: the last ``short`` windows AND a quarter of the last ``long``
#: windows are bad — a fast burn confirmed by a sustained one.
DEFAULT_SHORT = 4
DEFAULT_LONG = 16
DEFAULT_FAST_BURN = 0.5
DEFAULT_SLOW_BURN = 0.25


class SloObjective:
    """One parsed objective plus its burn-rate policy."""

    __slots__ = ("series", "stat", "op", "threshold", "short", "long",
                 "fast_burn", "slow_burn", "raw")

    def __init__(self, series: str, stat: str, op: str,
                 threshold: float, short: int = DEFAULT_SHORT,
                 long: int = DEFAULT_LONG,
                 fast_burn: float = DEFAULT_FAST_BURN,
                 slow_burn: float = DEFAULT_SLOW_BURN,
                 raw: Optional[str] = None) -> None:
        if stat not in STATS:
            raise ValueError(f"unknown SLO stat {stat!r} "
                             f"(expected one of {', '.join(STATS)})")
        if op not in OPS:
            raise ValueError(f"unknown SLO operator {op!r}")
        if short <= 0 or long < short:
            raise ValueError("SLO windows must satisfy 0 < short <= long")
        self.series = series
        self.stat = stat
        self.op = op
        self.threshold = threshold
        self.short = short
        self.long = long
        self.fast_burn = fast_burn
        self.slow_burn = slow_burn
        self.raw = raw if raw is not None else str(self)

    def __str__(self) -> str:
        return (f"{self.series}.{self.stat} {self.op} "
                f"{self.threshold:g}")

    @classmethod
    def parse(cls, text: str) -> "SloObjective":
        """Parse ``<series>.<stat> <op> <threshold>``.

        The stat is the last dot-component before the operator, so
        dotted series names (``world_call.cycles``) parse naturally.
        """
        parts = text.split()
        if len(parts) != 3:
            raise ValueError(
                f"malformed SLO {text!r}: expected "
                "'<series>.<stat> <op> <threshold>'")
        target, op, threshold_text = parts
        series, dot, stat = target.rpartition(".")
        if not dot or stat not in STATS:
            raise ValueError(
                f"malformed SLO target {target!r}: must end in one of "
                f".{', .'.join(STATS)}")
        try:
            threshold = float(threshold_text)
        except ValueError:
            raise ValueError(
                f"malformed SLO threshold {threshold_text!r}") from None
        if not math.isfinite(threshold):
            raise ValueError(
                f"SLO threshold must be finite, not {threshold_text!r}")
        return cls(series, stat, op, threshold, raw=text)

    # -- per-window resolution -----------------------------------------

    def _matching(self, mapping: Mapping[str, Any]) -> List[Any]:
        """Values whose rendered key is the series exactly or whose
        family name (text before ``{``) matches it."""
        exact = mapping.get(self.series)
        if exact is not None:
            return [exact]
        return [value for key, value in mapping.items()
                if key.split("{", 1)[0] == self.series]

    def resolve(self, window: Mapping[str, Any]) -> Optional[float]:
        """The stat's value in one window, or None when absent."""
        hists = self._matching(window.get("histograms", {}))
        if hists:
            return self._resolve_hists(hists)
        counters = self._matching(window.get("counters", {}))
        if not counters:
            counters = self._matching(window.get("subsystems", {}))
        if counters:
            total = sum(counters)
            if self.stat == "rate":
                cycles = window.get("cycles", 0)
                return total / cycles if cycles else None
            if self.stat in ("count", "sum", "value", "max", "mean"):
                return float(total)
            return None  # percentiles are meaningless for counters
        gauges = self._matching(window.get("gauges", {}))
        if gauges:
            if self.stat == "value":
                return float(gauges[-1])
            if self.stat == "max":
                return float(max(gauges))
            if self.stat == "mean":
                return sum(gauges) / len(gauges)
            return None
        return None

    def _resolve_hists(self, hists: Sequence[Mapping[str, Any]]
                       ) -> Optional[float]:
        # Family match may span several label sets: merge delta buckets
        # first (same spec-order determinism as the registry merge).
        count = sum(h["count"] for h in hists)
        total = sum(h["sum"] for h in hists)
        if self.stat == "count":
            return float(count)
        if self.stat == "sum":
            return float(total)
        if self.stat == "mean":
            return total / count if count else None
        if self.stat == "rate":
            return None
        # percentile stats need the buckets; windows carry them only
        # in pre-derived form unless raw buckets are present.
        raws = [h for h in hists if "bounds" in h]
        if raws:
            bounds = raws[0]["bounds"]
            if any(h["bounds"] != bounds for h in raws):
                return None
            counts = [0] * len(bounds)
            overflow = 0
            for h in raws:
                counts = [a + b for a, b in zip(counts, h["counts"])]
                overflow += h["overflow"]
            p = {"p50": 50, "p90": 90, "p99": 99, "p999": 99.9,
                 "max": 99.9, "value": 50}[self.stat]
            return _percentile(bounds, counts, count, overflow, p)
        if len(hists) == 1:
            key = "p999" if self.stat in ("max", "value") else self.stat
            value = hists[0].get(key)
            return float(value) if value is not None else None
        return None

    # -- burn-rate evaluation ------------------------------------------

    def evaluate(self, windows: Sequence[Mapping[str, Any]],
                 causes: Optional[Mapping[int, str]] = None
                 ) -> Dict[str, Any]:
        """Judge every window and fire rising-edge burn-rate alerts.

        Returns ``{"objective", "windows", "good", "bad", "skipped",
        "worst", "alerts"}`` — each alert pins the window index where
        the burn condition started holding.  ``causes`` (optional) maps
        window index -> attribution label (e.g. the xray explainer's
        dominant contention segment for that window); a firing alert
        then carries ``top_cause`` so the report names *why* the tail
        burned, not just that it did.
        """
        verdicts: List[Dict[str, Any]] = []
        bad_flags: List[bool] = []
        worst: Optional[float] = None
        compare = OPS[self.op]
        want_low = self.op in ("<", "<=")
        for window in windows:
            value = self.resolve(window)
            if value is None:
                continue
            ok = compare(value, self.threshold)
            verdicts.append({"index": window.get("index", len(verdicts)),
                             "value": value, "ok": ok})
            bad_flags.append(not ok)
            if worst is None or (value > worst if want_low
                                 else value < worst):
                worst = value
        alerts: List[Dict[str, Any]] = []
        burning = False
        for i in range(len(bad_flags)):
            short_span = bad_flags[max(0, i - self.short + 1):i + 1]
            long_span = bad_flags[max(0, i - self.long + 1):i + 1]
            short_rate = sum(short_span) / len(short_span)
            long_rate = sum(long_span) / len(long_span)
            now_burning = (short_rate >= self.fast_burn
                           and long_rate >= self.slow_burn)
            if now_burning and not burning:
                alert = {
                    "window": verdicts[i]["index"],
                    "value": verdicts[i]["value"],
                    "short_burn": round(short_rate, 4),
                    "long_burn": round(long_rate, 4),
                }
                if causes is not None:
                    cause = causes.get(verdicts[i]["index"])
                    if cause is not None:
                        alert["top_cause"] = cause
                alerts.append(alert)
            burning = now_burning
        bad = sum(bad_flags)
        return {
            "objective": self.raw,
            "series": self.series,
            "stat": self.stat,
            "op": self.op,
            "threshold": self.threshold,
            "windows": len(verdicts),
            "skipped": len(windows) - len(verdicts),
            "good": len(verdicts) - bad,
            "bad": bad,
            "worst": worst,
            "alerts": alerts,
        }


def evaluate_slos(objectives: Sequence[Any],
                  windows: Sequence[Mapping[str, Any]],
                  causes: Optional[Mapping[int, str]] = None
                  ) -> Dict[str, Any]:
    """Evaluate objectives (strings or :class:`SloObjective`) against
    one payload's windows; report-only summary.  ``causes`` (window
    index -> attribution label) flows through to each alert's
    ``top_cause``."""
    parsed = [obj if isinstance(obj, SloObjective)
              else SloObjective.parse(obj) for obj in objectives]
    results = [obj.evaluate(windows, causes) for obj in parsed]
    return {
        "objectives": results,
        "alerts_fired": sum(len(r["alerts"]) for r in results),
        "violated": sorted(r["objective"] for r in results if r["bad"]),
    }
