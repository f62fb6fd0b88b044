"""Observatory consumers: the ``crossover observatory`` text view and
the static HTML dashboard.

Both render one ``crossover-observatory/v1`` payload (the plain-data
dict built by :mod:`repro.observatory.campaign`).  The text view is
what ``crossover observatory`` prints — per-cell sparklines of the
busiest counters, the event timeline, and the SLO scoreboard.  The
HTML dashboard is a single self-contained file (inline CSS + JSON + a
few lines of canvas-free SVG generation done here, server-side) so it
can be attached to CI artifacts and opened anywhere.

OpenMetrics export is deliberately *not* here: it lives in
:func:`repro.telemetry.export.render_openmetrics`, standalone, so a
scrape endpoint does not need the observatory at all.  The helper
below just adapts a payload's totals into that function's shape.
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = ["render_top", "render_html", "totals_snapshot", "sparkline"]

#: Eighth-block ramp used for sparklines.
_SPARKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """A unicode sparkline of ``values`` resampled to ``width`` cells."""
    if not values:
        return ""
    if len(values) > width:
        # Average-pool down to ``width`` buckets.
        pooled = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max(lo + 1, (i + 1) * len(values) // width)
            chunk = values[lo:hi]
            pooled.append(sum(chunk) / len(chunk))
        values = pooled
    peak = max(values)
    if peak <= 0:
        return _SPARKS[0] * len(values)
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1,
                    int(v / peak * (len(_SPARKS) - 1) + 0.5))]
        for v in values)


def _series_over_windows(windows: Sequence[Mapping[str, Any]],
                         top: int = 6) -> List[Dict[str, Any]]:
    """The ``top`` busiest counter series as dense per-window arrays."""
    totals: Dict[str, float] = {}
    for window in windows:
        for key, value in window.get("counters", {}).items():
            totals[key] = totals.get(key, 0) + value
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    out = []
    for key, total in ranked:
        out.append({
            "series": key,
            "total": total,
            "values": [w.get("counters", {}).get(key, 0)
                       for w in windows],
        })
    return out


def _p99_series(windows: Sequence[Mapping[str, Any]],
                family: str) -> List[Optional[float]]:
    out: List[Optional[float]] = []
    for window in windows:
        hit = None
        for key, data in window.get("histograms", {}).items():
            if key == family or key.split("{", 1)[0] == family:
                hit = data.get("p99")
                break
        out.append(hit)
    return out


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.1f}" if value != int(value) else f"{int(value):,}"
    return f"{value:,}"


def _cell_windows(payload: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """(cell title, windows, events) triples — one per cell when the
    payload carries cells, else the payload's own series."""
    cells = payload.get("cells")
    if cells:
        return [dict(cell) for cell in cells]
    return [{"runner": payload.get("label", "observatory"), "args": [],
             "windows": payload.get("windows", []),
             "events": payload.get("events", []),
             "crosscheck": payload.get("crosscheck")}]


def render_top(payload: Mapping[str, Any], width: int = 32) -> str:
    """The ``crossover observatory`` text view of one payload."""
    lines: List[str] = []
    window_cycles = payload.get("window_cycles") or \
        payload.get("config", {}).get("window_cycles", 0)
    lines.append(f"crossover observatory · "
                 f"{payload.get('label', 'observatory')}"
                 f" · window={window_cycles:,} cycles")
    for cell in _cell_windows(payload):
        windows = cell.get("windows", [])
        args = ",".join(str(a) for a in cell.get("args", []))
        title = cell.get("runner", "?")
        if args:
            title = f"{title}({args})"
        check = cell.get("crosscheck") or {}
        status = "ok" if check.get("ok", True) else "MISMATCH"
        lines.append("")
        lines.append(f"── {title} · {len(windows)} windows · "
                     f"crosscheck {status}")
        if not windows:
            lines.append("   (no samples)")
            continue
        for series in _series_over_windows(windows):
            spark = sparkline(series["values"], width)
            lines.append(f"   {spark}  {series['series']} "
                         f"(Σ {_fmt(series['total'])})")
        p99 = _p99_series(windows, "world_call.cycles")
        if any(v is not None for v in p99):
            dense = [v if v is not None else 0.0 for v in p99]
            lines.append(f"   {sparkline(dense, width)}  "
                         f"world_call.cycles.p99 "
                         f"(last {_fmt(next((v for v in reversed(p99) if v is not None), None))})")
        events = cell.get("events", [])
        if events:
            lines.append(f"   events ({len(events)}):")
            for event in events[:12]:
                lines.append(
                    f"     w{event['window']:>4} @{event['cycles']:>12,} "
                    f" {event['kind']}: {event['label']}"
                    + (f" → {event['detail']}" if event["detail"] else ""))
            if len(events) > 12:
                lines.append(f"     … {len(events) - 12} more")
    slo = payload.get("slo")
    if slo:
        lines.append("")
        lines.append(f"── SLOs · {slo.get('alerts_fired', 0)} alert(s) "
                     "fired")
        for obj in slo.get("objectives", []):
            verdict = ("PASS" if not obj["bad"] else
                       f"{obj['bad']}/{obj['windows']} windows bad")
            lines.append(f"   [{'✗' if obj['bad'] else '✓'}] "
                         f"{obj['objective']} — {verdict}, "
                         f"worst {_fmt(obj['worst'])}")
            for alert in obj.get("alerts", []):
                lines.append(f"       burn alert @ window "
                             f"{alert['window']} (short "
                             f"{alert['short_burn']:.0%}, long "
                             f"{alert['long_burn']:.0%})")
    return "\n".join(lines) + "\n"


# -- HTML dashboard ----------------------------------------------------


def _svg_polyline(values: Sequence[float], w: int = 560, h: int = 80
                  ) -> str:
    """An inline SVG line chart (no JS needed to view)."""
    if not values:
        return "<svg/>"
    peak = max(values) or 1
    n = max(1, len(values) - 1)
    points = " ".join(
        f"{i / n * (w - 4) + 2:.1f},"
        f"{h - 2 - (v / peak) * (h - 14):.1f}"
        for i, v in enumerate(values))
    return (f'<svg viewBox="0 0 {w} {h}" class="chart">'
            f'<polyline points="{points}" fill="none" '
            f'stroke="#4c9be8" stroke-width="1.5"/>'
            f'<text x="4" y="11" class="peak">{_fmt(peak)}</text></svg>')


_HTML_HEAD = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>crossover observatory</title>
<style>
body { font: 13px/1.5 ui-monospace, monospace; background: #0e1116;
       color: #d7dde6; margin: 2em auto; max-width: 72em; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; color: #8ab4f8;
     border-bottom: 1px solid #273142; padding-bottom: .3em; }
.chart { width: 100%; height: 80px; background: #151a22;
         border: 1px solid #273142; border-radius: 4px; }
.peak { fill: #5b6b80; font-size: 10px; }
table { border-collapse: collapse; width: 100%; }
td, th { padding: .2em .6em; border-bottom: 1px solid #1d2633;
         text-align: left; }
.ok { color: #6fcf97; } .bad { color: #eb5757; }
.meta { color: #5b6b80; }
details { margin: 1em 0; }
</style></head><body>
"""


def render_html(payload: Mapping[str, Any]) -> str:
    """A self-contained HTML dashboard for one payload.

    Charts are server-side SVG; the raw payload rides along in a
    ``<script type="application/json">`` island for ad-hoc inspection.
    """
    esc = _html.escape
    parts: List[str] = [_HTML_HEAD]
    window_cycles = payload.get("window_cycles") or \
        payload.get("config", {}).get("window_cycles", 0)
    parts.append(f"<h1>crossover observatory · "
                 f"{esc(str(payload.get('label', '')))}</h1>")
    parts.append(f'<p class="meta">window = {window_cycles:,} modeled '
                 f"cycles · schema {esc(str(payload.get('schema', '')))}"
                 "</p>")
    for cell in _cell_windows(payload):
        windows = cell.get("windows", [])
        args = ",".join(str(a) for a in cell.get("args", []))
        title = cell.get("runner", "?") + (f"({args})" if args else "")
        check = cell.get("crosscheck") or {}
        ok = check.get("ok", True)
        parts.append(f"<h2>{esc(title)} <span class="
                     f"\"{'ok' if ok else 'bad'}\">crosscheck "
                     f"{'ok' if ok else 'MISMATCH'}</span></h2>")
        for series in _series_over_windows(windows):
            parts.append(f'<p class="meta">{esc(series["series"])} '
                         f'(Σ {_fmt(series["total"])})</p>')
            parts.append(_svg_polyline(series["values"]))
        p99 = _p99_series(windows, "world_call.cycles")
        if any(v is not None for v in p99):
            parts.append('<p class="meta">world_call.cycles.p99</p>')
            parts.append(_svg_polyline(
                [v if v is not None else 0.0 for v in p99]))
        events = cell.get("events", [])
        if events:
            parts.append("<details><summary>events "
                         f"({len(events)})</summary><table>"
                         "<tr><th>window</th><th>cycles</th>"
                         "<th>kind</th><th>label</th><th>detail</th>"
                         "</tr>")
            for event in events:
                parts.append(
                    f"<tr><td>{event['window']}</td>"
                    f"<td>{event['cycles']:,}</td>"
                    f"<td>{esc(event['kind'])}</td>"
                    f"<td>{esc(event['label'])}</td>"
                    f"<td>{esc(str(event['detail']))}</td></tr>")
            parts.append("</table></details>")
    slo = payload.get("slo")
    if slo:
        parts.append(f"<h2>SLOs · {slo.get('alerts_fired', 0)} "
                     "alert(s) fired</h2><table>"
                     "<tr><th></th><th>objective</th><th>bad/total"
                     "</th><th>worst</th><th>alerts</th></tr>")
        for obj in slo.get("objectives", []):
            bad = obj["bad"]
            mark = ("<span class='bad'>✗</span>" if bad
                    else "<span class='ok'>✓</span>")
            alerts = "; ".join(f"w{a['window']}"
                               for a in obj.get("alerts", [])) or "-"
            parts.append(f"<tr><td>{mark}</td>"
                         f"<td>{esc(obj['objective'])}</td>"
                         f"<td>{bad}/{obj['windows']}</td>"
                         f"<td>{_fmt(obj['worst'])}</td>"
                         f"<td>{esc(alerts)}</td></tr>")
        parts.append("</table>")
    parts.append('<script type="application/json" id="payload">')
    parts.append(json.dumps(payload, indent=None, sort_keys=True))
    parts.append("</script></body></html>")
    return "\n".join(parts) + "\n"


def totals_snapshot(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Adapt a payload's flat totals into the snapshot shape
    :func:`repro.telemetry.export.render_openmetrics` consumes."""
    counters = dict(payload.get("totals", {}))
    for cell in payload.get("cells", []):
        for key, value in cell.get("totals", {}).items():
            counters[key] = counters.get(key, 0) + value
    return {"counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {}, "histograms": {}}
