"""Recorded audit workloads behind ``crossover audit``: the
``crossover-audit/v1`` artifact.

One *cell* records a flight-recorder log for one (system, variant)
pair: a fresh two-VM machine runs the lmbench NULL syscall through the
system's redirection path ``calls`` times with a scoped recorder *and*
a scoped telemetry session installed, then cross-checks three
independent views of the same activity per call:

* the transition-trace world path (how Figure 2 counts crossings),
* the crossings replayed from the telemetry span tree,
* the crossings replayed from the audit log's redirect brackets
  (:func:`repro.audit.graph.bracket_crossings`).

The audit brackets cover the redirect itself (the span tracer's
``system``-category spans cover exactly the same window), while the
whole-call path additionally crosses the local syscall trap and
return; both relations are checked, as are a constant per-call count,
the paper's Figure-2 lower bound and the cost-attribution profile
against the session's flat counters.  Cells are independent
simulations, so recording parallelizes over
:func:`repro.analysis.parallel.run_cells` and the artifact is
byte-identical at any worker count.  ``crossover audit --trace-out
DIR`` also writes each cell's telemetry exporter files (Chrome trace,
metrics, crossing matrix, collapsed stacks, speedscope) into ``DIR``.

``crossover audit --check AUDIT.json`` replays the whole chain and
every crossing check the recorded lists decide offline
(:func:`verify_artifact`), and also rejects an artifact whose own
``checks`` or ``summary.crosscheck_ok`` claims are false.
"""

from __future__ import annotations

from contextlib import closing
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import audit
from repro.audit import chain as _chain
from repro.audit import detectors as _detectors
from repro.audit import graph as _graph
from repro.campaign import Campaign

SCHEMA = "crossover-audit/v1"

#: Case studies recorded by default (the paper's four systems).
WORKLOAD_SYSTEMS: Tuple[str, ...] = (
    "Proxos", "HyperShell", "Tahoma", "ShadowContext")

DEFAULT_CALLS = 5


# ---------------------------------------------------------------------------
# cell runner (registered for the parallel sweep; fork workers inherit)
# ---------------------------------------------------------------------------


def record_cell(system: str, optimized: bool, calls: int
                ) -> Tuple[Any, Dict[str, Any], Dict[str, List[int]]]:
    """Run one cell's workload: ``calls`` redirected NULL syscalls for
    one system variant under a fresh recorder + telemetry session.
    Self-contained (builds its own machine), so it runs identically
    in-process or inside a fork worker.

    Returns ``(session, log, crossings)``: the closed telemetry session,
    the audit log, and the per-call crossings seen by the transition
    trace, the ``null_syscall`` call spans and their ``system``-category
    redirect spans.
    """
    from repro import telemetry
    from repro.analysis import experiments
    from repro.core import convention
    from repro.telemetry import export
    from repro.workloads.lmbench import LmbenchSuite

    label = f"{system.lower()}-{_variant(optimized)}"
    convention.clear_caches()
    crossings: Dict[str, List[int]] = {
        "trace": [], "call_spans": [], "redirect_spans": []}
    try:
        with telemetry.scoped(label) as session:
            tracer = session.tracer
            surface = experiments._surface_for(system, optimized,
                                               keep_trace=True)
            machine = experiments._machine_of(surface)
            with closing(machine):
                suite = LmbenchSuite(surface)
                suite.setup()
                suite.null_syscall()             # warm the redirect path
                trace = machine.cpu.trace
                recorder = audit.FlightRecorder(label)
                with audit.scoped(recorder):
                    for index in range(calls):
                        mark = trace.mark
                        with tracer.span("null_syscall", category="call",
                                         cpu=machine.cpu,
                                         index=index) as call_span:
                            suite.null_syscall()
                        crossings["trace"].append(len(trace.path(mark)) - 1)
                        if call_span is not None:
                            crossings["call_spans"].append(
                                export.crossings_of_span(call_span))
                            crossings["redirect_spans"].extend(
                                export.crossings_of_span(child)
                                for child in call_span.iter_spans()
                                if child.category == "system")
    finally:
        convention.clear_caches()
    return session, recorder.to_log(), crossings


#: The recorded crossing lists each of :func:`_crossing_checks` reads.
_CHECK_LISTS: Dict[str, Tuple[str, ...]] = {
    "trace_matches_call_spans": ("trace", "call_spans"),
    "audit_matches_redirect_spans": ("audit", "redirect_spans"),
    "trap_overhead_constant": ("trace", "audit"),
    "crossings_constant": ("trace",),
    "paper_bound_ok": ("trace",),
}


def _crossing_checks(crossings: Dict[str, List[int]],
                     paper: Optional[int]) -> Dict[str, bool]:
    """The checks the recorded per-call crossing lists alone decide, so
    :func:`verify_artifact` re-derives them offline.  A missing list
    reads as empty."""
    trace, brackets = crossings.get("trace", []), crossings.get("audit", [])
    # The whole-call path crosses the local trap + return on top of the
    # redirect bracket; that overhead must at least be constant.
    trap_deltas = {t - a for t, a in zip(trace, brackets)}
    return {
        "trace_matches_call_spans": trace == crossings.get("call_spans", []),
        "audit_matches_redirect_spans":
            brackets == crossings.get("redirect_spans", []),
        "trap_overhead_constant": len(trap_deltas) <= 1,
        "crossings_constant": len(set(trace)) <= 1,
        "paper_bound_ok": paper is None or not trace or trace[-1] >= paper,
    }


def run_audit_cell(system: str, optimized: bool, calls: int,
                   trace_out: Optional[str] = None) -> Dict[str, Any]:
    """One recorded cell (:func:`record_cell`) and its checks.  With
    ``trace_out``, the session's exporter files (trace, metrics,
    matrix, stacks, speedscope) are written there too; they carry host
    wall-clock, so they stay out of the returned cell."""
    from repro.analysis.calibration import FIGURE2_CROSSINGS
    from repro.telemetry import export, profiler

    variant = _variant(optimized)
    session, log, crossings = record_cell(system, optimized, calls)
    if trace_out is not None:
        export.write_artifacts(session, trace_out,
                               prefix=f"{system.lower()}_{variant}.")
    crossings["audit"] = [b["crossings"]
                          for b in _graph.bracket_crossings(log)]
    anomalies = _detectors.run_detectors(log)
    paper = FIGURE2_CROSSINGS.get(system) if not optimized else None
    checks = _crossing_checks(crossings, paper)
    checks.update(
        chain_ok=not _chain.verify_chain(log),
        no_anomalies=not anomalies,
        profile_matches_counters=not profiler.crosscheck(session))
    return {
        "system": system,
        "variant": variant,
        "calls": calls,
        "paper_crossings": paper,
        "crossings": crossings,
        "checks": checks,
        "anomalies": anomalies,
        "log": log,
    }


def _variant(optimized: bool) -> str:
    return "optimized" if optimized else "original"


def _register() -> None:
    # Imported lazily so ``import repro.audit`` never drags the machine
    # stack in; recording calls this before running cells.
    from repro.analysis.experiments import CELL_RUNNERS
    CELL_RUNNERS["auditcell"] = run_audit_cell


# ---------------------------------------------------------------------------
# artifact assembly / offline verification
# ---------------------------------------------------------------------------


def record_workload(systems: Optional[Sequence[str]] = None,
                    variants: Sequence[bool] = (False, True),
                    calls: int = DEFAULT_CALLS,
                    workers: Optional[int] = None,
                    trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Record every (system, variant) cell and assemble the
    ``crossover-audit/v1`` artifact (plain data, ``json.dump``-ready,
    worker-count independent).  ``trace_out`` is a directory each cell
    writes its exporter files to (:func:`run_audit_cell`); the artifact
    is the same with or without it."""
    from repro.analysis import parallel

    _register()
    if calls < 1:
        raise ValueError("calls must be >= 1")
    systems = tuple(systems) if systems else WORKLOAD_SYSTEMS
    for system in systems:
        if system not in WORKLOAD_SYSTEMS:
            raise ValueError(f"unknown workload system {system!r}; "
                             f"choose from {sorted(WORKLOAD_SYSTEMS)}")
    specs = [("auditcell", (system, optimized, calls, trace_out))
             for system in systems for optimized in variants]
    results = parallel.run_cells(specs, workers=workers)
    cells = [result.value for result in results]

    total_records = sum(len(cell["log"]["records"]) for cell in cells)
    total_anomalies = sum(len(cell["anomalies"]) for cell in cells)
    checks_ok = all(all(cell["checks"].values()) for cell in cells)
    return {
        "schema": SCHEMA,
        "algo": _chain.ALGORITHM,
        "calls_per_cell": calls,
        "systems": list(systems),
        "cells": cells,
        "summary": {
            "cells": len(cells),
            "records": total_records,
            "anomalies": total_anomalies,
            "crosscheck_ok": checks_ok,
        },
    }


def verify_artifact(artifact: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Offline verification of a recorded artifact.

    Re-verifies every cell's hash chain, re-derives the causal-graph
    crossings and detector verdicts from the raw log, and compares them
    against what the artifact claims.  Returns a list of violations
    (``{cell, seq, check, message}``); empty means the artifact is
    internally consistent and tamper-free.
    """
    violations: List[Dict[str, Any]] = []
    for cell in artifact.get("cells", []):
        where = f"{cell.get('system')}/{cell.get('variant')}"
        log = cell.get("log", {})
        for violation in _chain.verify_chain(log):
            violations.append({"cell": where, "seq": violation["seq"],
                               "check": f"chain.{violation['check']}",
                               "message": violation["message"]})
        if any(v["check"].startswith("chain.") and v["cell"] == where
               for v in violations):
            continue    # derived views of a broken chain prove nothing
        derived = [b["crossings"] for b in _graph.bracket_crossings(log)]
        claimed = cell.get("crossings", {}).get("audit")
        if derived != claimed:
            violations.append({
                "cell": where, "seq": None, "check": "crossings",
                "message": f"causal-graph crossings {derived} != "
                           f"recorded {claimed}"})
        recorded = cell.get("crossings", {})
        paper = cell.get("paper_crossings")
        for name, ok in _crossing_checks(recorded, paper).items():
            if not ok:
                read = ", ".join(f"{key} {recorded.get(key, [])}"
                                 for key in _CHECK_LISTS[name])
                if name == "paper_bound_ok":
                    read += f", paper {paper}"
                violations.append({
                    "cell": where, "seq": None, "check": name,
                    "message": f"recorded {read} fail {name}"})
        derived_anomalies = _detectors.run_detectors(log)
        if derived_anomalies != cell.get("anomalies"):
            violations.append({
                "cell": where, "seq": None, "check": "anomalies",
                "message": f"detectors now report "
                           f"{len(derived_anomalies)} anomalies, "
                           f"artifact recorded "
                           f"{len(cell.get('anomalies') or [])}"})
    return violations


def _failures(artifact: Dict[str, Any]) -> List[str]:
    """The offline verification's violations, then every false claim
    the artifact makes about itself."""
    errors = []
    for violation in verify_artifact(artifact):
        seq = violation["seq"]
        at = f" (seq {seq})" if seq is not None else ""
        errors.append(f"{violation['cell']}{at}: [{violation['check']}] "
                      f"{violation['message']}")
    for cell in artifact["cells"]:
        errors += [f"{cell['system']}/{cell['variant']}: check failed: "
                   f"{name}" for name, ok in cell["checks"].items() if not ok]
    if not artifact["summary"]["crosscheck_ok"]:
        errors.append("claim failed: crosscheck_ok")
    return errors


def render_summary(artifact: Dict[str, Any]) -> str:
    """One line per cell plus the totals."""
    lines = [f"{cell['system']}/{cell['variant']}: "
             f"{len(cell['log']['records'])} records, crossings per call "
             f"{cell['crossings']['trace']}, "
             f"{len(cell['anomalies'])} anomalies"
             for cell in artifact["cells"]]
    summary = artifact["summary"]
    lines.append(f"{summary['cells']} cells, {summary['records']} records, "
                 f"{summary['anomalies']} anomalies, crosscheck "
                 + ("ok" if summary["crosscheck_ok"] else "FAILED"))
    return "\n".join(lines)


def _add_arguments(parser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="also write each cell's Chrome trace, "
                             "metrics, crossing matrix, collapsed stacks "
                             "and speedscope profile to DIR (they carry "
                             "host wall-clock, so the artifact leaves "
                             "them out)")


CAMPAIGN = Campaign(
    name="audit", section="audit",
    help="Hash-chained flight recorder: every case-study system and "
         "variant, chain and crossings verified offline.",
    add_arguments=_add_arguments,
    run=lambda args: record_workload(workers=args.workers,
                                     trace_out=args.trace_out),
    render=render_summary, failures=_failures, seeded=False)
