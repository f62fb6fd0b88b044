"""``crossover observatory``: record and gate the time-resolved series.

The recording runs the four case-study systems (Table 4's optimized
columns) plus the bursty adaptive switchless campaign cell through the
parallel runner, with a telemetry session and an observatory installed
— each cell records into its own spawned observatory and the parent
absorbs the payloads in spec order, so the resulting
``crossover-observatory/v1`` artifact is **byte-identical at any pool
worker count** (nothing host-side is recorded: no wall-clock, no PIDs,
no worker count)::

    crossover observatory --slo 'world_call.cycles.p99 < 100000' \\
        --out OBSERVATORY.json --html dashboard.html
    crossover observatory --check OBSERVATORY.json

Verification recomputes every cell's conservation crosscheck
(:func:`repro.observatory.store.crosscheck`) rather than trusting the
recorded ``ok`` flag: a window delta stream that does not sum back to
the flat end-of-run counters is a recorder bug, never acceptable data.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, List, Optional, Sequence

from repro import observatory as _observatory
from repro import telemetry
from repro.campaign import Campaign
from repro.observatory import exporters
from repro.observatory import slo as _slo
from repro.observatory.store import crosscheck

#: The standard recording: the paper's four case-study systems (their
#: optimized world-call columns) plus the bursty adaptive switchless
#: campaign cell, whose mid-run policy flip exercises the event timeline.
RECORD_SYSTEMS = ("Proxos", "HyperShell", "Tahoma", "ShadowContext")
RECORD_SEED = 11

SCHEMA = "crossover-observatory/v1"


def record(workers: Optional[int] = None,
           objectives: Sequence[Any] = ()) -> Dict[str, Any]:
    """Run the standard recording and build the artifact dict."""
    from repro.analysis import parallel
    from repro.core import convention, fastpath
    from repro.switchless import campaign  # noqa: F401 (registers
    #                                        the switchlesscell runner)

    specs = [("table4", (name, True, 2)) for name in RECORD_SYSTEMS]
    specs.append(("switchlesscell", ("bursty", "adaptive", RECORD_SEED, 2)))
    # Warm the calling convention cache from a known-empty state, fast
    # path on, so every recording starts from the same state.
    convention.clear_caches()
    session = telemetry.TelemetrySession.lightweight("observatory")
    with fastpath.scoped(True):
        telemetry.install(session)
        try:
            with _observatory.scoped(label="observatory") as obs:
                parallel.run_cells(specs, workers=workers)
        finally:
            telemetry.uninstall()
    return build_artifact(obs, objectives)


def build_artifact(obs: "_observatory.Observatory",
                   objectives: Sequence[Any]) -> Dict[str, Any]:
    """The ``crossover-observatory/v1`` artifact for one recording.

    Only the per-cell payloads go in (each cell has its own zero-based
    clock); the parent observatory is pure absorber, so its own windows
    — which would double-count the merged registries — are dropped.
    """
    cells = [dict(cell) for cell in obs.cells]
    for cell in cells:
        # The parent-side absorber adds nothing per-cell beyond spec
        # identity; config rides at top level once.
        cell.pop("config", None)
        cell.pop("label", None)
    all_windows: List[Dict[str, Any]] = []
    for cell in cells:
        all_windows.extend(cell.get("windows", []))
    slo_report = _slo.evaluate_slos(objectives, all_windows)
    artifact: Dict[str, Any] = {
        "schema": SCHEMA,
        "label": obs.label,
        "window_cycles": _observatory.DEFAULT_WINDOW_CYCLES,
        "cells": cells,
        "slo": slo_report,
        "summary": {
            "cells": len(cells),
            "windows": sum(len(c.get("windows", [])) for c in cells),
            "events": sum(len(c.get("events", [])) for c in cells),
            "crosscheck_ok": all(
                (c.get("crosscheck") or {}).get("ok", False)
                for c in cells) if cells else True,
            "alerts_fired": slo_report["alerts_fired"],
        },
    }
    return artifact


def _add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--slo", action="append", default=[],
                        metavar="OBJECTIVE",
                        help="declarative objective, e.g. "
                             "'world_call.cycles.p99 < 600' (repeatable; "
                             "report-only unless --strict)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any --slo objective is violated")
    parser.add_argument("--html", default=None, metavar="FILE",
                        help="write the self-contained HTML dashboard")
    parser.add_argument("--openmetrics", default=None, metavar="FILE",
                        help="write the flat totals in OpenMetrics text "
                             "format")


def _run(args: argparse.Namespace) -> Dict[str, Any]:
    """Parse ``--slo`` (a bad objective is a ``ValueError`` before any
    cell runs), record, and write the requested exports."""
    from repro.telemetry.export import render_openmetrics

    objectives = [_slo.SloObjective.parse(text) for text in args.slo]
    artifact = record(workers=args.workers, objectives=objectives)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as stream:
            stream.write(exporters.render_html(artifact))
    if args.openmetrics:
        with open(args.openmetrics, "w", encoding="utf-8") as stream:
            stream.write(render_openmetrics(
                exporters.totals_snapshot(artifact)))
    for path in (args.html, args.openmetrics):
        if path and not args.quiet:
            print(f"wrote {path}")
    return artifact


def _failures(artifact: Dict[str, Any]) -> List[str]:
    """Recompute every cell's conservation crosscheck, then the
    recorded claims."""
    errors = []
    for cell in artifact["cells"]:
        where = f"{cell['runner']}{tuple(cell['args'])}"
        for miss in crosscheck(cell)["mismatches"]:
            errors.append(
                f"crosscheck mismatch in {where}: {miss['counter']} windows "
                f"sum to {miss['windows_sum']}, flat total is {miss['flat']}")
        if not cell["crosscheck"]["ok"]:
            errors.append(f"claim failed: crosscheck.ok in {where}")
    if not artifact["summary"]["crosscheck_ok"]:
        errors.append("claim failed: crosscheck_ok")
    return errors


CAMPAIGN = Campaign(
    name="observatory", section="observatory",
    help="Time-resolved series of the case-study systems and the bursty "
         "switchless cell: windows, event timeline, SLO burn rates.",
    add_arguments=_add_arguments, run=_run,
    render=lambda artifact: exporters.render_top(artifact).rstrip("\n"),
    failures=_failures, seeded=False)
