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
return; both relations are checked.  Cells are independent
simulations, so recording parallelizes over
:func:`repro.analysis.parallel.run_cells` and the artifact is
byte-identical at any worker count.

``crossover audit --check AUDIT.json`` replays the whole chain offline
(:func:`verify_artifact`) and also rejects an artifact whose own
``checks`` or ``summary.crosscheck_ok`` claims are false.
"""

from __future__ import annotations

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


def run_audit_cell(system: str, optimized: bool, calls: int,
                   algo: str = "sha256") -> Dict[str, Any]:
    """One recorded cell: ``calls`` redirected NULL syscalls for one
    system variant under a fresh recorder + telemetry session.
    Self-contained (builds its own machine), so it runs identically
    in-process or inside a fork worker."""
    from repro import telemetry
    from repro.analysis import experiments
    from repro.analysis.calibration import FIGURE2_CROSSINGS
    from repro.core import convention
    from repro.telemetry import export
    from repro.workloads.lmbench import LmbenchSuite

    variant = "optimized" if optimized else "original"
    label = f"{system.lower()}-{variant}"
    convention.clear_caches()
    trace_crossings: List[int] = []
    call_span_crossings: List[int] = []
    redirect_span_crossings: List[int] = []
    try:
        with telemetry.scoped(label) as session:
            tracer = session.tracer
            surface = experiments._surface_for(system, optimized,
                                               keep_trace=True)
            machine = experiments._machine_of(surface)
            suite = LmbenchSuite(surface)
            suite.setup()
            suite.null_syscall()             # warm the redirect path
            trace = machine.cpu.trace
            recorder = audit.FlightRecorder(
                label, audit.AuditConfig(algo=algo))
            with audit.scoped(recorder):
                for index in range(calls):
                    mark = trace.mark
                    with tracer.span("null_syscall", category="call",
                                     cpu=machine.cpu,
                                     index=index) as call_span:
                        suite.null_syscall()
                    trace_crossings.append(len(trace.path(mark)) - 1)
                    if call_span is not None:
                        call_span_crossings.append(
                            export.crossings_of_span(call_span))
                        redirect_span_crossings.extend(
                            export.crossings_of_span(child)
                            for child in call_span.iter_spans()
                            if child.category == "system")
    finally:
        convention.clear_caches()

    log = recorder.to_log()
    audit_brackets = _graph.bracket_crossings(log)
    audit_crossings = [b["crossings"] for b in audit_brackets]
    anomalies = _detectors.run_detectors(log)
    paper = FIGURE2_CROSSINGS.get(system) if not optimized else None

    # The whole-call path crosses the local trap + return on top of the
    # redirect bracket; that overhead must at least be constant.
    trap_deltas = {t - a for t, a in zip(trace_crossings, audit_crossings)}
    checks = {
        "chain_ok": not _chain.verify_chain(log),
        "trace_matches_call_spans":
            trace_crossings == call_span_crossings,
        "audit_matches_redirect_spans":
            audit_crossings == redirect_span_crossings,
        "trap_overhead_constant": len(trap_deltas) <= 1,
        "paper_bound_ok": (paper is None or not trace_crossings
                           or trace_crossings[-1] >= paper),
        "no_anomalies": not anomalies,
    }
    return {
        "system": system,
        "variant": variant,
        "calls": calls,
        "paper_crossings": paper,
        "crossings": {
            "trace": trace_crossings,
            "call_spans": call_span_crossings,
            "audit": audit_crossings,
            "redirect_spans": redirect_span_crossings,
        },
        "checks": checks,
        "anomalies": anomalies,
        "log": log,
    }


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
                    algo: str = "sha256") -> Dict[str, Any]:
    """Record every (system, variant) cell and assemble the
    ``crossover-audit/v1`` artifact (plain data, ``json.dump``-ready,
    worker-count independent)."""
    from repro.analysis import parallel

    _register()
    if calls < 1:
        raise ValueError("calls must be >= 1")
    systems = tuple(systems) if systems else WORKLOAD_SYSTEMS
    for system in systems:
        if system not in WORKLOAD_SYSTEMS:
            raise ValueError(f"unknown workload system {system!r}; "
                             f"choose from {sorted(WORKLOAD_SYSTEMS)}")
    if algo not in _chain.ALGORITHMS:
        raise ValueError(f"unknown chain algorithm {algo!r}; "
                         f"choose from {_chain.ALGORITHMS}")
    specs = [("auditcell", (system, optimized, calls, algo))
             for system in systems for optimized in variants]
    results = parallel.run_cells(specs, workers=workers)
    cells = [result.value for result in results]

    total_records = sum(len(cell["log"]["records"]) for cell in cells)
    total_anomalies = sum(len(cell["anomalies"]) for cell in cells)
    checks_ok = all(all(cell["checks"].values()) for cell in cells)
    return {
        "schema": SCHEMA,
        "algo": algo,
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
        spans = cell.get("crossings", {}).get("redirect_spans")
        if derived != spans:
            violations.append({
                "cell": where, "seq": None, "check": "span-crosscheck",
                "message": f"causal-graph crossings {derived} != span "
                           f"tracer {spans}"})
        paper = cell.get("paper_crossings")
        trace_crossings = cell.get("crossings", {}).get("trace", [])
        if paper is not None and trace_crossings \
                and trace_crossings[-1] < paper:
            violations.append({
                "cell": where, "seq": None, "check": "figure2",
                "message": f"recorded {trace_crossings[-1]} crossings "
                           f"per call, paper's Figure 2 counts {paper}"})
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


CAMPAIGN = Campaign(
    name="audit", section="audit",
    help="Hash-chained flight recorder: every case-study system and "
         "variant, chain and crossings verified offline.",
    add_arguments=lambda parser: None,
    run=lambda args: record_workload(workers=args.workers),
    render=render_summary, failures=_failures, seeded=False)
