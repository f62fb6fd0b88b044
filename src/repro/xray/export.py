"""Perfetto / Chrome trace export for sampled x-ray traces.

:func:`chrome_trace_from_artifact` renders the kept traces of a
``crossover-fleet/v2`` artifact as Chrome trace-event JSON (load it in
``chrome://tracing`` or https://ui.perfetto.dev).  Unlike the
telemetry exporter's span forest — which sits on the **host
wall-clock** — these events live on the **modeled-cycle** axis: a
trace's ``ts`` is its modeled arrival cycle converted to modeled
microseconds, so the timeline replays the simulated fleet, not the
simulation process, and the JSON is byte-identical across runs.

Layout: one Chrome *process* per rendered cell, one *thread* per
tenant.  Each trace is an enclosing ``X`` span named by its id, tiled
by one child span per non-zero segment laid out back-to-back in
canonical segment order.  The tiling is exact because segments sum to
the latency (the conservation invariant); it is an **attribution**
layout — contention cycles are shown where they were accrued in the
accounting, not interleaved event-by-event.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.hw.costs import CYCLES_PER_US
from repro.xray.trace import SEGMENTS

#: Chrome trace categories: the request envelope vs its segments.
REQUEST_CAT = "xray.request"
SEGMENT_CAT = "xray.segment"


def _us(cycles: float) -> float:
    return cycles / CYCLES_PER_US


def chrome_trace_from_artifact(
        artifact: Dict[str, Any],
        cells: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Render ``cells`` (default: every cell, sorted) as one Chrome
    trace-event JSON object on the modeled-cycle axis."""
    keys = list(cells) if cells is not None else sorted(artifact["cells"])
    events: List[Dict[str, Any]] = []
    for pid, key in enumerate(keys):
        cell = artifact["cells"].get(key)
        if cell is None:
            raise KeyError(f"no cell named {key!r}; "
                           f"have {sorted(artifact['cells'])}")
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": key},
        })
        for trace in cell["xray"]["traces"]:
            tid = trace["tenant"]
            events.append({
                "name": trace["id"],
                "cat": REQUEST_CAT,
                "ph": "X",
                "ts": _us(trace["arrival"]),
                "dur": _us(trace["latency"]),
                "pid": pid,
                "tid": tid,
                "args": {
                    "latency_cycles": trace["latency"],
                    "contention_cycles": trace["contention_cycles"],
                    "self_cycles": trace["self_cycles"],
                    "dominant_segment": trace["dominant_segment"],
                },
            })
            cursor = trace["arrival"]
            for name in SEGMENTS:
                cycles = trace["segments"][name]
                if not cycles:
                    continue
                events.append({
                    "name": name,
                    "cat": SEGMENT_CAT,
                    "ph": "X",
                    "ts": _us(cursor),
                    "dur": _us(cycles),
                    "pid": pid,
                    "tid": tid,
                    "args": {"cycles": cycles, "trace": trace["id"]},
                })
                cursor += cycles
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": artifact["schema"],
            "seed": artifact["seed"],
            "clock": "modeled-cycles (us at modeled 3.4 GHz)",
            "cells": keys,
        },
    }
