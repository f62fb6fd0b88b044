"""Telemetry exporters: Chrome trace JSON, crossing matrix, metrics.

Three artifact shapes come out of a :class:`~repro.telemetry.
TelemetrySession`:

* :func:`chrome_trace` — the Chrome trace-event JSON object format
  (load it in ``chrome://tracing`` or https://ui.perfetto.dev): spans
  become complete (``"ph": "X"``) events on the host wall-clock
  timeline with their modeled cycles/instructions in ``args``, and
  each boundary crossing becomes a thread-scoped instant;
* :func:`crossing_matrix` / :func:`crossing_matrix_text` — the
  world-switch matrix: event counts per ``(frm, to, kind)``, derived
  from the session's ``trace.matrix`` counter family;
* :func:`metrics_snapshot` — the deterministic metrics JSON.

:func:`write_artifacts` writes all three to a directory, plus the
cost-attribution profile (``crossover audit --trace-out DIR`` calls
it).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry import TelemetrySession
from repro.telemetry.registry import _parse_series
from repro.telemetry.spans import Span

def _trace_epoch(session: TelemetrySession) -> int:
    """Earliest wall timestamp in the span forest (trace time zero)."""
    starts = [s.start_wall_ns for s in session.tracer.iter_spans()]
    return min(starts) if starts else 0


def chrome_trace(session: TelemetrySession,
                 label: Optional[str] = None) -> Dict[str, Any]:
    """Render the session's span forest as a Chrome trace-event JSON
    object (timestamps in microseconds relative to the first span)."""
    epoch = _trace_epoch(session)
    events: List[Dict[str, Any]] = []

    def emit(span: Span) -> None:
        args: Dict[str, Any] = dict(span.args)
        if span.cycles is not None:
            args["modeled_cycles"] = span.cycles
        if span.instructions is not None:
            args["modeled_instructions"] = span.instructions
        if span.start_seq is not None:
            args["trace_seq"] = [span.start_seq, span.end_seq]
        args["wall_ns"] = span.wall_ns
        end = (span.end_wall_ns if span.end_wall_ns is not None
               else span.start_wall_ns)
        events.append({
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": (span.start_wall_ns - epoch) / 1000.0,
            "dur": (end - span.start_wall_ns) / 1000.0,
            "pid": 0,
            "tid": span.tid,
            "args": args,
        })
        for event in span.events:
            events.append({
                "name": event.name,
                "cat": "crossing",
                "ph": "i",
                "s": "t",
                "ts": (event.wall_ns - epoch) / 1000.0,
                "pid": 0,
                "tid": span.tid,
                "args": dict(event.args, seq=event.seq),
            })
        for child in span.children:
            emit(child)

    for root in session.tracer.roots:
        emit(root)
    events.append({"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                   "args": {"name": session.label}})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "session": label if label is not None else session.label,
            "dropped": session.tracer.dropped,
        },
    }


def crossing_matrix(session: TelemetrySession
                    ) -> List[Tuple[str, str, str, int]]:
    """World-switch matrix rows ``(frm, to, kind, count)``, sorted."""
    rows: List[Tuple[str, str, str, int]] = []
    for key, counter in session.metrics.family("trace.matrix").items():
        labels = dict(key)
        rows.append((labels.get("frm", "?"), labels.get("to", "?"),
                     labels.get("kind", "?"), counter.value))
    rows.sort()
    return rows


def crossing_matrix_text(session: TelemetrySession) -> str:
    """The crossing matrix as an aligned plain-text table."""
    rows = crossing_matrix(session)
    if not rows:
        return ("(no crossings recorded — was the transition trace "
                "enabled?)")
    headers = ("From", "To", "Kind", "Count")
    table = [headers] + [(f, t, k, str(c)) for f, t, k, c in rows]
    widths = [max(len(row[i]) for row in table) for i in range(4)]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[j])
                               for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(4)))
    total = sum(c for _, _, _, c in rows)
    lines.append("")
    lines.append(f"total boundary events: {total}")
    return "\n".join(lines)


def metrics_snapshot(session: TelemetrySession) -> Dict[str, Any]:
    """The full deterministic metrics artifact (``metrics.json``):
    the registry snapshot plus the session label."""
    snap = session.metrics.snapshot()
    return {
        "label": session.label,
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histograms": snap["histograms"],
    }


def _openmetrics_name(name: str) -> str:
    """Sanitize a family name to the OpenMetrics charset
    (``[a-zA-Z_:][a-zA-Z0-9_:]*``): dots and other separators become
    underscores."""
    sanitized = "".join(c if c.isalnum() or c in "_:" else "_"
                        for c in name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _openmetrics_escape(value: str) -> str:
    """Label-value escaping per the OpenMetrics text format."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _openmetrics_value(value: Any) -> str:
    """Render a sample value (ints stay integral, floats use repr)."""
    if isinstance(value, bool):  # pragma: no cover - no bool metrics
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _openmetrics_labels(labels) -> str:
    """``{k="v",...}`` in the label key's canonical sorted order."""
    if not labels:
        return ""
    inner = ",".join(
        f'{_openmetrics_name(k)}="{_openmetrics_escape(str(v))}"'
        for k, v in labels)
    return "{" + inner + "}"


def render_openmetrics(snapshot: Dict[str, Any]) -> str:
    """Render a snapshot's counters and gauges as OpenMetrics/Prometheus
    text.

    ``snapshot`` is any mapping with ``counters`` / ``gauges`` keys in
    the registry's snapshot shape (``crossover observatory
    --openmetrics`` passes
    :func:`repro.observatory.exporters.totals_snapshot`).  Families are
    emitted in sorted order with one ``# TYPE`` line each; counters get
    the conventional ``_total`` suffix; the text ends with ``# EOF``.
    """
    lines: List[str] = []

    def group(entries):
        families: Dict[str, List[Tuple[Any, Any]]] = {}
        for rendered in sorted(entries):
            name, labels = _parse_series(rendered)
            families.setdefault(name, []).append(
                (labels, entries[rendered]))
        return sorted(families.items())

    for name, series in group(snapshot.get("counters", {})):
        metric = _openmetrics_name(name)
        lines.append(f"# TYPE {metric} counter")
        for labels, value in series:
            lines.append(f"{metric}_total{_openmetrics_labels(labels)} "
                         f"{_openmetrics_value(value)}")
    for name, series in group(snapshot.get("gauges", {})):
        metric = _openmetrics_name(name)
        lines.append(f"# TYPE {metric} gauge")
        for labels, value in series:
            lines.append(f"{metric}{_openmetrics_labels(labels)} "
                         f"{_openmetrics_value(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_artifacts(session: TelemetrySession, outdir: str,
                    prefix: str = "", profile: bool = True
                    ) -> Dict[str, str]:
    """Write ``<prefix>trace.json``, ``<prefix>metrics.json`` and
    ``<prefix>matrix.txt`` under ``outdir`` — plus, unless
    ``profile=False``, the cost-attribution profile as
    ``<prefix>stacks.collapsed`` and ``<prefix>speedscope.json``;
    returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "trace": os.path.join(outdir, f"{prefix}trace.json"),
        "metrics": os.path.join(outdir, f"{prefix}metrics.json"),
        "matrix": os.path.join(outdir, f"{prefix}matrix.txt"),
    }
    with open(paths["trace"], "w") as fh:
        json.dump(chrome_trace(session), fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(paths["metrics"], "w") as fh:
        json.dump(metrics_snapshot(session), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["matrix"], "w") as fh:
        fh.write(crossing_matrix_text(session) + "\n")
    if profile:
        from repro.telemetry import profiler

        prof = profiler.profile_session(session)
        paths.update(profiler.write_profile(prof, outdir, prefix))
    return paths


def crossings_of_span(span: Span) -> int:
    """Figure-2-style crossing count over a span's subtree.

    Replays the span's captured instants the way
    :meth:`~repro.hw.trace.TransitionTrace.path` walks the flat trace:
    start at the first event's source world, append every destination,
    merge consecutive duplicates, count edges."""
    worlds: List[str] = []
    for event in span.iter_events():
        frm = event.args.get("frm")
        to = event.args.get("to")
        if frm is None or to is None:
            continue
        if not worlds:
            worlds.append(frm)
        if to != worlds[-1]:
            worlds.append(to)
    return max(0, len(worlds) - 1)
