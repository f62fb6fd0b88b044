"""``crossover-top``: record, view and gate the time-resolved series.

The recorder runs the four case-study systems (Table 4's optimized
columns) plus the bursty adaptive switchless campaign cell through the
parallel runner, with a telemetry session and an observatory installed
— each cell records into its own spawned observatory and the parent
absorbs the payloads in spec order, so the resulting
``crossover-observatory/v1`` artifact is **byte-identical at any pool
worker count** (nothing host-side is recorded: no wall-clock, no PIDs,
no worker count).

Exit codes: ``0`` ok, ``1`` an SLO alert fired under ``--strict``
(report-only is the default), ``2`` usage error, ``3`` the
conservation crosscheck failed (a window delta stream that does not
sum back to the flat end-of-run counters is a recorder bug, never
acceptable data).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro import observatory as _observatory
from repro import telemetry
from repro.campaign import write_artifact
from repro.observatory import slo as _slo
from repro.observatory import exporters

#: The standard recording: the paper's four case-study systems (their
#: optimized world-call columns) plus the PR7 bursty adaptive campaign
#: cell, whose mid-run policy flip exercises the event timeline.
RECORD_SYSTEMS = ("Proxos", "HyperShell", "Tahoma", "ShadowContext")
RECORD_SEED = 11

SCHEMA = "crossover-observatory/v1"


def _record_specs(iterations: int, demo: bool = False):
    specs: List[Any] = []
    systems = RECORD_SYSTEMS[:1] if demo else RECORD_SYSTEMS
    for name in systems:
        specs.append(("table4", (name, True, iterations)))
    specs.append(("switchlesscell", ("bursty", "adaptive", RECORD_SEED, 2)))
    return specs


def record(label: str = "observatory",
           window_cycles: int = _observatory.DEFAULT_WINDOW_CYCLES,
           workers: Optional[int] = 1, iterations: int = 2,
           demo: bool = False,
           objectives: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run the standard recording and build the artifact dict."""
    from repro.analysis import parallel
    from repro.core import convention, fastpath
    from repro.switchless import campaign  # noqa: F401 (registers
    #                                        the switchlesscell runner)

    # Warm the calling convention cache from a known-empty state, fast
    # path on, so every recording starts from the same state.
    convention.clear_caches()
    session = telemetry.TelemetrySession.lightweight(label)
    config = _observatory.ObservatoryConfig(window_cycles=window_cycles)
    with fastpath.scoped(True):
        telemetry.install(session)
        try:
            with _observatory.scoped(label=label, config=config) as obs:
                parallel.run_cells(_record_specs(iterations, demo),
                                   workers=workers)
        finally:
            telemetry.uninstall()
    return build_artifact(obs, objectives or [])


def build_artifact(obs: "_observatory.Observatory",
                   objectives: List[str]) -> Dict[str, Any]:
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
        "window_cycles": obs.config.window_cycles,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossover-top",
        description="Time-resolved view of the simulator: windowed "
                    "series, event timeline, SLO burn-rate alerts.")
    parser.add_argument("--record", action="store_true",
                        help="run the standard recording (four case-"
                             "study systems + bursty switchless cell)")
    parser.add_argument("--demo", action="store_true",
                        help="small quick recording, prints the top "
                             "view (implies --record)")
    parser.add_argument("--load", metavar="FILE",
                        help="render an existing artifact instead of "
                             "recording")
    parser.add_argument("--out", metavar="FILE",
                        help="write the crossover-observatory/v1 JSON "
                             "artifact")
    parser.add_argument("--html", metavar="FILE",
                        help="write the self-contained HTML dashboard")
    parser.add_argument("--openmetrics", metavar="FILE",
                        help="write the flat totals in OpenMetrics "
                             "text format")
    parser.add_argument("--workers", type=int, default=1,
                        help="pool workers for the recording "
                             "(artifact is identical at any count)")
    parser.add_argument("--window", type=int,
                        default=_observatory.DEFAULT_WINDOW_CYCLES,
                        help="window width in modeled cycles "
                             "(default %(default)s)")
    parser.add_argument("--iterations", type=int, default=2,
                        help="Table-4 iterations per cell")
    parser.add_argument("--label", default="observatory")
    parser.add_argument("--slo", action="append", default=[],
                        metavar="OBJECTIVE",
                        help="declarative objective, e.g. "
                             "'world_call.cycles.p99 < 600' "
                             "(repeatable; report-only by default)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any SLO burn-rate alert "
                             "fires")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.window <= 0:
        print("crossover-top: --window must be positive",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print("crossover-top: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        objectives = [_slo.SloObjective.parse(text) for text in args.slo]
    except ValueError as exc:
        print(f"crossover-top: {exc}", file=sys.stderr)
        return 2

    if args.load:
        with open(args.load) as fh:
            artifact = json.load(fh)
        if args.slo:
            all_windows: List[Dict[str, Any]] = []
            for cell in artifact.get("cells", []):
                all_windows.extend(cell.get("windows", []))
            artifact["slo"] = _slo.evaluate_slos(objectives, all_windows)
            artifact["summary"]["alerts_fired"] = \
                artifact["slo"]["alerts_fired"]
    elif args.record or args.demo:
        artifact = record(label=args.label, window_cycles=args.window,
                          workers=args.workers,
                          iterations=args.iterations, demo=args.demo,
                          objectives=objectives)
    else:
        print("crossover-top: nothing to do (use --record, --demo or "
              "--load FILE)", file=sys.stderr)
        return 2

    from repro.telemetry.schema import load_schema, validate
    schema_errors = validate(artifact, load_schema("observatory"))
    for error in schema_errors:
        print(f"crossover-top: schema violation: {error}",
              file=sys.stderr)

    if not args.quiet:
        print(exporters.render_top(artifact), end="")

    if args.out:
        write_artifact(artifact, args.out)
        if not args.quiet:
            print(f"wrote {args.out}")
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(exporters.render_html(artifact))
        if not args.quiet:
            print(f"wrote {args.html}")
    if args.openmetrics:
        from repro.telemetry.export import render_openmetrics
        with open(args.openmetrics, "w") as fh:
            fh.write(render_openmetrics(
                exporters.totals_snapshot(artifact)))
        if not args.quiet:
            print(f"wrote {args.openmetrics}")

    if not artifact["summary"]["crosscheck_ok"]:
        for cell in artifact["cells"]:
            check = cell.get("crosscheck") or {}
            for miss in check.get("mismatches", []):
                print("crossover-top: crosscheck mismatch in "
                      f"{cell['runner']}{tuple(cell['args'])}: "
                      f"{miss['counter']} windows sum to "
                      f"{miss['windows_sum']}, flat total is "
                      f"{miss['flat']}", file=sys.stderr)
        return 3
    if schema_errors:
        return 1
    if args.strict and artifact["summary"]["alerts_fired"]:
        print(f"crossover-top: --strict: "
              f"{artifact['summary']['alerts_fired']} SLO alert(s) "
              "fired", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
