"""Tail-latency explainer: fixed-width reports over a
``crossover-fleet/v2`` artifact.

Three renderers, composed by :func:`render_report` (what
``crossover fleet`` prints after its throughput curves):

* :func:`render_tail` — the "why is p99 what it is" table.  One row
  per mechanism at the top tenant count: the p99 exemplar trace id,
  its dominant segment, and the contention share of *all* cycles
  (aggregated exactly over every request, not just sampled ones),
  followed by the exemplar's full segment breakdown;
* :func:`render_noisy_neighbors` — cycles each tenant inflicted on
  others through the serialized hypervisor vs its traffic share;
* :func:`render_conservation` — the per-cell segment-conservation
  verdict.

Everything renders from artifact data alone — the explainer needs no
live recorder, so it replays identically from a checked-in JSON file.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.tables import format_table
from repro.hw.costs import us
from repro.xray.trace import SEGMENTS


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "-"


def render_tail(artifact: Dict[str, Any]) -> str:
    """The per-mechanism tail table plus each p99 exemplar's segment
    breakdown."""
    rows = []
    for row in artifact["tail"]:
        exemplar = row["p99_exemplar"]
        rows.append([
            row["mechanism"], row["tenants"],
            None if row["p99"] is None else round(us(row["p99"]), 2),
            exemplar["id"] if exemplar else "-",
            row["dominant_segment"] or "-",
            _pct(row["contention_share"], 1.0),
        ])
    lines = [format_table(
        ["mechanism", "tenants", "p99 us", "p99 exemplar",
         "dominant", "contention"], rows,
        title="Tail explainer (top tenant count)")]
    for row in artifact["tail"]:
        exemplar = row["p99_exemplar"]
        if exemplar is None:
            continue
        latency = exemplar["latency"]
        seg_rows = [[name, exemplar["segments"][name],
                     _pct(exemplar["segments"][name], latency)]
                    for name in SEGMENTS
                    if exemplar["segments"][name]]
        lines.append("")
        lines.append(format_table(
            ["segment", "cycles", "share"], seg_rows,
            title=f"{row['mechanism']} p99 exemplar {exemplar['id']} "
                  f"({round(us(latency), 2)} us)"))
    return "\n".join(lines)


def render_noisy_neighbors(artifact: Dict[str, Any]) -> str:
    """Baseline top-count per-tenant contention attribution."""
    rows = [[row["tenant"], row["requests"],
             _pct(row["traffic_share"], 1.0),
             row["caused_cycles"],
             _pct(row["caused_share"], 1.0),
             row["contention_cycles"]]
            for row in artifact["noisy_neighbors"]]
    return format_table(
        ["tenant", "requests", "traffic", "caused cycles",
         "caused share", "suffered cycles"], rows,
        title="Noisy neighbors (baseline, hv-wait cycles inflicted)")


def render_conservation(artifact: Dict[str, Any]) -> str:
    """Per-cell conservation verdicts as one compact table."""
    conservation = artifact["conservation"]
    rows: List[List[object]] = [
        [key, verdict["checked"], len(verdict["mismatches"]),
         "ok" if verdict["ok"] else "FAIL"]
        for key, verdict in sorted(conservation["cells"].items())]
    return format_table(
        ["cell", "traces checked", "mismatches", "verdict"], rows,
        title=f"Segment conservation "
              f"({'ok' if conservation['ok'] else 'FAIL'}, "
              f"{conservation['checked']} traces)")


def render_report(artifact: Dict[str, Any]) -> str:
    """The full text report the CLI prints."""
    summary = artifact["summary"]
    lines = [render_tail(artifact), "", render_noisy_neighbors(artifact),
             "", render_conservation(artifact), ""]
    lines.append(
        f"baseline tail is hv serialization: "
        f"{summary['baseline_tail_is_hv_serialization']}  "
        f"fast paths free of hv wait: "
        f"{summary['fast_paths_free_of_hv_wait']}  "
        f"1/2/4-lane trace-identical: {summary['lane_identical']}  "
        f"conservation: {summary['conservation_ok']}")
    return "\n".join(lines)
