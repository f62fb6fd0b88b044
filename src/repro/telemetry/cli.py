"""``crossover-trace``: trace a case-study workload, emit artifacts.

For each requested ``(system, variant)`` the tool builds a fresh
two-VM machine under its own telemetry session, runs the lmbench NULL
syscall through the system's redirection path ``--calls`` times (one
span per call), and writes the three exporter artifacts —
``<prefix>trace.json`` (Chrome trace-event JSON, loadable in
``chrome://tracing`` or https://ui.perfetto.dev), ``<prefix>metrics.json``
(the deterministic metrics snapshot) and ``<prefix>matrix.txt`` (the
world-switch crossing matrix) — plus one ``summary.json`` across all
runs.

The summary cross-checks three views of the same activity per call:

* the transition-trace world path (how Figure 2 counts crossings),
* the crossings replayed from the call span's captured instants,
* the paper's published Figure-2 count (original variants only).

Examples::

    crossover-trace --all --out telemetry-out
    crossover-trace --system Proxos --system HyperShell --optimized
    crossover-trace --quick          # CI smoke: trace + self-validate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.telemetry import export, profiler, schema
from repro.telemetry.spans import Span


def _workload_prefix(system_name: str, optimized: bool) -> str:
    variant = "optimized" if optimized else "original"
    return f"{system_name.lower()}_{variant}"


def trace_system(system_name: str, optimized: bool, calls: int
                 ) -> Tuple[telemetry.TelemetrySession, Dict[str, Any]]:
    """Run ``calls`` redirected NULL syscalls for one system variant
    under a fresh telemetry session; returns (session, summary row)."""
    # Imported here so `crossover-trace --help` stays instant and the
    # machine stack is only pulled in when actually tracing.
    from repro.analysis import experiments
    from repro.analysis.calibration import FIGURE2_CROSSINGS
    from repro.workloads.lmbench import LmbenchSuite

    variant = "optimized" if optimized else "original"
    label = f"{system_name.lower()}-{variant}"
    with telemetry.scoped(label) as session:
        tracer = session.tracer
        with tracer.span(f"{label}.setup", category="setup",
                         system=system_name, variant=variant):
            surface = experiments._surface_for(system_name, optimized,
                                               keep_trace=True)
            machine = experiments._machine_of(surface)
            suite = LmbenchSuite(surface)
            suite.setup()
            suite.null_syscall()                 # warm the redirect path
        trace = machine.cpu.trace
        trace_crossings: List[int] = []
        span_crossings: List[int] = []
        workload: Optional[Span] = None
        with tracer.span(f"{label}.workload", category="workload",
                         cpu=machine.cpu, system=system_name,
                         variant=variant, calls=calls) as workload:
            for index in range(calls):
                mark = trace.mark
                with tracer.span("null_syscall", category="call",
                                 cpu=machine.cpu, index=index) as call_span:
                    suite.null_syscall()
                trace_crossings.append(len(trace.path(mark)) - 1)
                if call_span is not None:
                    span_crossings.append(export.crossings_of_span(call_span))

    crossings = trace_crossings[-1] if trace_crossings else 0
    consistent = (trace_crossings == span_crossings
                  and len(set(trace_crossings)) <= 1)
    world_call_spans = 0
    if workload is not None:
        world_call_spans = sum(1 for s in workload.iter_spans()
                               if s.category == "system")
    paper = (FIGURE2_CROSSINGS.get(system_name)
             if not optimized else None)
    row = {
        "system": system_name,
        "variant": variant,
        "calls": calls,
        "crossings_per_call": crossings,
        "paper_crossings": paper,
        "world_call_spans": world_call_spans,
        "span_crossings_consistent": consistent,
        # The simulator records finer ring-level crossings than the
        # paper's world-hop diagrams, so measured >= paper always.
        "paper_bound_ok": paper is None or crossings >= paper,
        "profile_consistent": not profiler.crosscheck(session),
    }
    return session, row


def _validate_artifacts(summary_path: str,
                        artifacts: Dict[str, Dict[str, str]]) -> List[str]:
    """Self-check every emitted JSON artifact against the checked-in
    schema bundle (the same check CI runs)."""
    errors = [f"summary.json: {e}"
              for e in schema.validate_file("summary", summary_path)]
    for key, paths in sorted(artifacts.items()):
        for schema_name, artifact in (("chrome_trace", "trace"),
                                      ("metrics", "metrics")):
            path = paths.get(artifact)
            if path is None:
                continue
            errors.extend(f"{os.path.basename(path)}: {e}"
                          for e in schema.validate_file(schema_name, path))
    return errors


def build_parser() -> argparse.ArgumentParser:
    from repro.analysis.experiments import SYSTEMS

    parser = argparse.ArgumentParser(
        prog="crossover-trace",
        description="Trace a case-study system's redirected-syscall "
                    "workload and emit Chrome trace / metrics / "
                    "crossing-matrix artifacts.")
    parser.add_argument("--system", action="append", default=[],
                        choices=sorted(SYSTEMS), dest="systems",
                        help="system to trace (repeatable; default: all)")
    parser.add_argument("--all", action="store_true",
                        help="trace every Table-1 system")
    parser.add_argument("--optimized", action="store_true",
                        help="trace the CrossOver-optimized variant "
                             "instead of the original design")
    parser.add_argument("--both", action="store_true",
                        help="trace both variants of each system")
    parser.add_argument("--calls", type=int, default=10, metavar="N",
                        help="redirected calls per traced run "
                             "(default: %(default)s)")
    parser.add_argument("--out", default="telemetry-out", metavar="DIR",
                        help="artifact directory (default: %(default)s)")
    parser.add_argument("--profile", action="store_true",
                        help="print each run's top hotspot stacks "
                             "(the collapsed-stack and speedscope "
                             "artifacts are always written)")
    parser.add_argument("--hotspots", type=int, default=5, metavar="N",
                        help="hotspot rows per run with --profile "
                             "(default: %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: Proxos original, 2 calls, "
                             "then validate every artifact against the "
                             "checked-in schema")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.analysis.experiments import SYSTEMS

    args = build_parser().parse_args(argv)
    if args.quick:
        systems = ["Proxos"]
        variants = [False]
        args.calls = 2
    else:
        systems = args.systems or list(SYSTEMS)
        if args.all:
            systems = list(SYSTEMS)
        variants = [False, True] if args.both else [args.optimized]
    if args.calls < 1:
        print("crossover-trace: --calls must be >= 1", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    rows: List[Dict[str, Any]] = []
    artifacts: Dict[str, Dict[str, str]] = {}
    for system_name in systems:
        for optimized in variants:
            session, row = trace_system(system_name, optimized, args.calls)
            prefix = _workload_prefix(system_name, optimized)
            artifacts[prefix] = export.write_artifacts(
                session, args.out, prefix=f"{prefix}.")
            rows.append(row)
            paper = row["paper_crossings"]
            paper_note = f", paper {paper}" if paper is not None else ""
            ok = (row["span_crossings_consistent"]
                  and row["paper_bound_ok"] and row["profile_consistent"])
            check = "ok" if ok else "MISMATCH"
            print(f"{system_name} {row['variant']}: "
                  f"{row['crossings_per_call']} crossings/call"
                  f"{paper_note}; {row['calls']} calls, "
                  f"{row['world_call_spans']} redirect spans; "
                  f"span/trace/paper agreement: {check}")
            if args.profile:
                profile = profiler.profile_session(session)
                print(profile.hotspot_table(args.hotspots))

    summary = {"systems": rows, "artifacts": artifacts}
    summary_path = os.path.join(args.out, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"artifacts written to {args.out}/ "
          f"({len(artifacts)} traced runs + summary.json)")

    # Any disagreement between the three views of the same activity —
    # span replay vs transition trace vs the paper's Figure-2 bound —
    # is a hard failure, as is a profile that cannot be reconciled
    # with the flat counters.
    failures = [r for r in rows
                if not (r["span_crossings_consistent"]
                        and r["paper_bound_ok"]
                        and r["profile_consistent"])]
    for row in failures:
        print(f"crossover-trace: {row['system']} {row['variant']}: "
              f"span/trace/paper crossing cross-check failed "
              f"(consistent={row['span_crossings_consistent']}, "
              f"paper_bound_ok={row['paper_bound_ok']}, "
              f"profile_consistent={row['profile_consistent']})",
              file=sys.stderr)
    if args.quick:
        errors = _validate_artifacts(summary_path, artifacts)
        for error in errors:
            print(f"schema violation: {error}", file=sys.stderr)
        if not errors:
            print("all artifacts valid against telemetry.schema.json")
        if errors:
            return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
