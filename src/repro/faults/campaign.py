"""Seeded fault-injection campaigns over the world-call datapath.

A *campaign* replays the case-study operation mix (one guest syscall
per studied system) while a :class:`~repro.faults.engine.FaultEngine`
fires each named site on a seeded schedule.  Every (system x site)
pair is one *cell*: the cell builds a fresh two-VM harness, runs a
clean warm-up operation to capture the expected result, then runs
``ops`` operations bracketed by ``begin_operation``/``end_operation``
and classifies each outcome:

``denied-cleanly``
    the site forged or stripped authority and the runtime refused the
    call with :class:`~repro.errors.AuthorizationDenied`, leaving the
    caller intact.
``recovered``
    the fault fired and the operation still produced the expected
    result on the CrossOver datapath (bounded retry, WT-cache refill,
    watchdog timeout, marshaling repair, ...).
``degraded-to-legacy``
    the operation produced the expected result but only by falling
    back to the legacy vmcall/trap path.
``invariant-violation``
    anything else: wrong result, unexpected exception, or corrupted
    caller state (non-empty call stack, wedged callee, leaked watchdog
    bookkeeping).  A healthy tree produces **zero** of these.
``unaffected``
    the schedule did not fire the site on this operation.

Cells are independent simulations, so the campaign parallelizes over
:func:`repro.analysis.parallel.run_cells`; the artifact is assembled
from cell values and merged telemetry counters only, so the same seed
and plan produce a byte-identical artifact at any worker count.
``crossover faults`` runs it (:mod:`repro.campaign`).
"""

from __future__ import annotations

import argparse
from contextlib import closing
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import audit, faults
from repro.analysis.experiments import CELL_RUNNERS
from repro.campaign import Campaign, sweep
from repro.errors import AuthorizationDenied, CallTimeout
from repro.faults.plan import seeded_plan
from repro.faults.sites import SITES, SITE_NAMES, FaultSite
from repro.testbed import WorldPair

SCHEMA = "crossover-faults/v1"

#: Paper case studies replayed by the campaign, each reduced to the one
#: guest syscall its redirected path shuttles across worlds.
CAMPAIGN_SYSTEMS: Tuple[str, ...] = (
    "Proxos", "HyperShell", "Tahoma", "ShadowContext")

_SYSTEM_SYSCALLS: Dict[str, Tuple[str, Tuple[Any, ...]]] = {
    "Proxos": ("stat", ("/",)),
    "HyperShell": ("uname", ()),
    "Tahoma": ("getppid", ()),
    "ShadowContext": ("getpid", ()),
}

#: Recovery policies a campaign can disable (resilience ablations).
RECOVERY_POLICIES: Tuple[str, ...] = (
    "revalidate", "wtc_refill", "legacy_fallback", "hypercall_retry",
    "crossvm_legacy", "watchdog")

OUTCOMES: Tuple[str, ...] = (
    "denied-cleanly", "recovered", "degraded-to-legacy",
    "invariant-violation", "unaffected")

DEFAULT_OPS = 6


# ---------------------------------------------------------------------------
# cell harnesses (one fresh simulation per (system, site) pair)
# ---------------------------------------------------------------------------


class _WorldCallCell(WorldPair):
    """CrossOver world-call surface: two kernel worlds, authorized."""

    def __init__(self, system: str, disabled: Tuple[str, ...]) -> None:
        from repro.core.authorization import AllowListPolicy

        policy = AllowListPolicy()
        super().__init__(policy)
        policy.grant(self.caller.wid)
        recovery = self.runtime.recovery
        for name in ("revalidate", "wtc_refill", "legacy_fallback",
                     "hypercall_retry"):
            if name in disabled:
                setattr(recovery, name, False)
        self.watchdog = "watchdog" not in disabled
        self.syscall = _SYSTEM_SYSCALLS[system]

    def operate(self, site: FaultSite) -> Any:
        if self.watchdog and (site.name == "hypervisor.hypercall_reject"
                              or not self.caller.watchdog_armed):
            self.runtime.arm_watchdog(self.caller)
        name, args = self.syscall
        return self.runtime.call(self.caller, self.callee.wid,
                                 (name,) + args)

    def recoveries(self) -> Dict[str, int]:
        from repro.core import convention
        out = {k: v for k, v in sorted(self.runtime.recoveries.items())}
        repaired = convention.cache_stats["poison_repaired"]
        if repaired:
            out["marshal_repair"] = out.get("marshal_repair", 0) + repaired
        return out

    def legacy_count(self) -> int:
        return self.runtime.legacy_calls

    def state_ok(self) -> bool:
        cpu, hv = self.cpu, self.machine.hypervisor
        return (self.caller.call_stack == []
                and self.caller.matches_cpu(cpu)
                and not self.callee.busy
                and cpu.ring == 0
                and cpu.cpu_id not in hv.armed_timeouts)


class _CrossVMCell:
    """EPTP-switching cross-VM dispatcher surface (``crossvm`` sites)."""

    def __init__(self, system: str, disabled: Tuple[str, ...]) -> None:
        from repro.core.crossvm import CrossVMSyscallMechanism
        from repro.testbed import build_two_vm_machine, enter_vm_kernel

        machine, vm1, k1, vm2, k2 = build_two_vm_machine()
        machine.cpu.trace.enabled = False
        self.machine = machine
        self.cpu = machine.cpu
        self.vm1, self.vm2 = vm1, vm2
        self.mech = CrossVMSyscallMechanism(machine)
        self.mech.setup_pair(vm1, vm2)
        enter_vm_kernel(machine, vm2)
        enter_vm_kernel(machine, vm1)
        if "crossvm_legacy" in disabled:
            self.mech.recovery_legacy = False
        self.syscall = _SYSTEM_SYSCALLS[system]

    def operate(self, site: FaultSite) -> Any:
        name, args = self.syscall
        return self.mech.call(self.vm1, self.vm2, name, *args)

    def recoveries(self) -> Dict[str, int]:
        count = self.mech.recoveries.get("legacy_roundtrip", 0)
        return {"crossvm_legacy": count} if count else {}

    def legacy_count(self) -> int:
        return self.mech.recoveries.get("legacy_roundtrip", 0)

    def state_ok(self) -> bool:
        cpu = self.cpu
        return (cpu.mode.name == "NON_ROOT" and cpu.vm_name == self.vm1.name
                and cpu.ring == 0 and cpu.interrupts.interrupts_enabled)


class _BaselineCell:
    """Legacy hypervisor-mediated redirect (``baseline`` sites)."""

    def __init__(self, system: str, disabled: Tuple[str, ...]) -> None:
        from repro.testbed import build_two_vm_machine, enter_vm_kernel

        machine, vm1, k1, vm2, k2 = build_two_vm_machine()
        machine.cpu.trace.enabled = False
        self.machine = machine
        self.cpu = machine.cpu
        self.vm1, self.vm2 = vm1, vm2
        self.k2 = k2
        self.executor = k2.spawn("executor")
        enter_vm_kernel(machine, vm2)
        enter_vm_kernel(machine, vm1)
        self.syscall = _SYSTEM_SYSCALLS[system]

    def operate(self, site: FaultSite) -> Any:
        name, args = self.syscall
        return self.machine.hypervisor.redirect(
            self.cpu, self.vm1, self.vm2,
            lambda: self.k2.execute_syscall(self.executor, name, *args))

    def recoveries(self) -> Dict[str, int]:
        return {}

    def legacy_count(self) -> int:
        return 0

    def state_ok(self) -> bool:
        cpu = self.cpu
        return (cpu.mode.name == "NON_ROOT" and cpu.vm_name == self.vm1.name
                and cpu.ring == 0)


_CELL_KINDS = {"worldcall": _WorldCallCell, "crossvm": _CrossVMCell,
               "baseline": _BaselineCell}


# ---------------------------------------------------------------------------
# cell runner (registered for the parallel sweep; fork workers inherit)
# ---------------------------------------------------------------------------


def _classify(site: FaultSite, fired: bool, err: Optional[BaseException],
              result_repr: Optional[str], expected: str,
              legacy_delta: int, state_ok: bool) -> str:
    if not state_ok:
        return "invariant-violation"
    if err is None and result_repr == expected:
        if not fired:
            return "unaffected"
        return "degraded-to-legacy" if legacy_delta else "recovered"
    if not fired:
        return "invariant-violation"
    if isinstance(err, AuthorizationDenied) \
            and site.expect == "denied-cleanly":
        return "denied-cleanly"
    if isinstance(err, CallTimeout) and site.name == "core.callee_stall":
        return "recovered"
    return "invariant-violation"


def run_fault_cell(system: str, site_name: str, ops: int, seed: int,
                   disabled: Tuple[str, ...]) -> Dict[str, Any]:
    """One campaign cell: ``ops`` operations of ``system``'s syscall
    under a seeded schedule for ``site_name``.  Self-contained: builds
    its own machine and fault engine, so it runs identically in-process
    or inside a fork worker."""
    from repro.audit import detectors as audit_detectors
    from repro.core import convention

    site = SITES[site_name]
    convention.clear_caches()
    plan = seeded_plan(site_name, seed, key=f"{system}:{site_name}",
                       ops=ops, fires=max(1, ops // 2))
    outcomes = {label: 0 for label in OUTCOMES}
    cycles_clean = cycles_faulted = ops_clean = ops_faulted = 0
    errors: List[str] = []
    # The recorder is created before the harness so its epoch base
    # predates any cell activity; cells run trace-off, so the log is
    # semantic records only.
    recorder = audit.FlightRecorder(f"{system}:{site_name}")
    try:
        cell = _CELL_KINDS[site.op](system, disabled)
        with closing(cell.machine), audit.scoped(recorder), \
                faults.scoped(faults.FaultEngine([plan])) as engine:
            expected = repr(cell.operate(site))  # clean warm-up op
            cell.operate(site)  # steady-state op: the drift baseline
            for index in range(ops):
                engine.begin_operation(index)
                legacy_before = cell.legacy_count()
                cycles_before = cell.cpu.perf.cycles
                err: Optional[BaseException] = None
                result_repr: Optional[str] = None
                try:
                    result_repr = repr(cell.operate(site))
                except Exception as exc:  # classified below
                    err = exc
                cycles = cell.cpu.perf.cycles - cycles_before
                fired = site_name in engine.fired_this_op
                engine.end_operation()
                outcome = _classify(
                    site, fired, err, result_repr, expected,
                    cell.legacy_count() - legacy_before, cell.state_ok())
                outcomes[outcome] += 1
                if fired:
                    ops_faulted += 1
                    cycles_faulted += cycles
                else:
                    ops_clean += 1
                    cycles_clean += cycles
                if err is not None:
                    label = type(err).__name__
                    if label not in errors:
                        errors.append(label)
            injected = engine.fired.get(site_name, 0)
            recoveries = cell.recoveries()
            legacy = cell.legacy_count()
    finally:
        convention.clear_caches()
    # Blind detection pass: bracket 0 (cold warm-up) is exempt, the
    # steady-state warm-up op is the explicit drift baseline, and the
    # detectors never read the engine's fam-"fault" courtesy markers.
    log = recorder.to_log()
    fingerprints = audit_detectors.bracket_fingerprints(log)
    drift_baseline = fingerprints[1] if len(fingerprints) > 1 else None
    anomalies = audit_detectors.run_detectors(log, baseline=drift_baseline)
    return {
        "system": system,
        "site": site_name,
        "ops": ops,
        "injected": injected,
        "outcomes": outcomes,
        "recoveries": recoveries,
        "legacy_calls": legacy,
        "cycles_clean": cycles_clean,
        "ops_clean": ops_clean,
        "cycles_faulted": cycles_faulted,
        "ops_faulted": ops_faulted,
        "errors": errors,
        "detectors": sorted({a["detector"] for a in anomalies}),
        "anomalies": len(anomalies),
    }


CELL_RUNNERS["faultcell"] = run_fault_cell


# ---------------------------------------------------------------------------
# campaign driver + artifact assembly
# ---------------------------------------------------------------------------


def _mean(total: int, count: int) -> Optional[float]:
    return round(total / count, 2) if count else None


def _crosscheck(cells: List[Dict[str, Any]],
                counters: Dict[str, int]) -> Dict[str, Any]:
    """Reconcile the matrix against the merged telemetry counters."""
    checks: List[Dict[str, Any]] = []

    injected_by_site: Dict[str, int] = {}
    for cell in cells:
        injected_by_site[cell["site"]] = (
            injected_by_site.get(cell["site"], 0) + cell["injected"])
    telemetry_by_site = {
        key[len("faults.injected{site="):-1]: value
        for key, value in counters.items()
        if key.startswith("faults.injected{")}
    checks.append({
        "name": "injected-matches-telemetry",
        "ok": injected_by_site == telemetry_by_site,
        "matrix": injected_by_site,
        "telemetry": telemetry_by_site,
    })

    recoveries_by_policy: Dict[str, int] = {}
    for cell in cells:
        for policy, count in cell["recoveries"].items():
            recoveries_by_policy[policy] = (
                recoveries_by_policy.get(policy, 0) + count)
    telemetry_by_policy = {
        key[len("faults.recoveries{policy="):-1]: value
        for key, value in counters.items()
        if key.startswith("faults.recoveries{")}
    checks.append({
        "name": "recoveries-match-telemetry",
        "ok": recoveries_by_policy == telemetry_by_policy,
        "matrix": recoveries_by_policy,
        "telemetry": telemetry_by_policy,
    })

    coverage_ok = all(
        sum(cell["outcomes"].values()) == cell["ops"] for cell in cells)
    checks.append({"name": "outcomes-cover-all-ops", "ok": coverage_ok})

    return {"ok": all(check["ok"] for check in checks), "checks": checks}


def run_campaign(systems: Optional[Sequence[str]] = None,
                 sites: Optional[Sequence[str]] = None,
                 ops: int = DEFAULT_OPS, seed: int = 0,
                 workers: Optional[int] = None,
                 disabled: Iterable[str] = ()) -> Dict[str, Any]:
    """Run a full campaign and return the ``crossover-faults/v1``
    artifact (plain data, `json.dump`-ready, worker-count independent).
    """
    systems = tuple(systems) if systems else CAMPAIGN_SYSTEMS
    sites = tuple(sites) if sites else SITE_NAMES
    disabled = tuple(sorted(set(disabled)))
    if ops < 1:
        raise ValueError("ops must be >= 1")
    for system in systems:
        if system not in _SYSTEM_SYSCALLS:
            raise ValueError(f"unknown campaign system {system!r}; "
                             f"choose from {sorted(_SYSTEM_SYSCALLS)}")
    for name in sites:
        if name not in SITES:
            raise ValueError(f"unknown fault site {name!r}; "
                             f"choose from {sorted(SITES)}")
    for name in disabled:
        if name not in RECOVERY_POLICIES:
            raise ValueError(f"unknown recovery policy {name!r}; "
                             f"choose from {sorted(RECOVERY_POLICIES)}")

    specs = [("faultcell", (system, site, ops, seed, disabled))
             for site in sites for system in systems]
    results, counters = sweep(specs, "faults-campaign", "faults.", workers)
    cells = [result.value for result in results]

    matrix: Dict[str, Dict[str, Any]] = {}
    totals_outcomes = {label: 0 for label in OUTCOMES}
    total_injected = total_ops = 0
    for cell in cells:
        entry = {
            "injected": cell["injected"],
            "outcomes": cell["outcomes"],
            "legacy_calls": cell["legacy_calls"],
            "cycles_clean_mean": _mean(cell["cycles_clean"],
                                       cell["ops_clean"]),
            "cycles_faulted_mean": _mean(cell["cycles_faulted"],
                                         cell["ops_faulted"]),
            "errors": cell["errors"],
        }
        matrix.setdefault(cell["site"], {})[cell["system"]] = entry
        total_injected += cell["injected"]
        total_ops += cell["ops"]
        for label, count in cell["outcomes"].items():
            totals_outcomes[label] += count

    recoveries: Dict[str, int] = {}
    for cell in cells:
        for policy, count in cell["recoveries"].items():
            recoveries[policy] = recoveries.get(policy, 0) + count

    detection: Dict[str, Dict[str, Any]] = {}
    for cell in cells:
        entry = detection.setdefault(
            cell["site"],
            {"detected": False, "detectors": [], "by_system": {}})
        if cell["detectors"]:
            entry["detected"] = True
            entry["by_system"][cell["system"]] = cell["detectors"]
            entry["detectors"] = sorted(
                set(entry["detectors"]) | set(cell["detectors"]))
    sites_detected = sum(
        1 for entry in detection.values() if entry["detected"])

    sites_exercised = sum(
        1 for site in matrix
        if any(entry["injected"] for entry in matrix[site].values()))
    handled = (totals_outcomes["recovered"]
               + totals_outcomes["denied-cleanly"]
               + totals_outcomes["degraded-to-legacy"])
    recovered_percent = (round(100.0 * handled / total_injected, 2)
                         if total_injected else 0.0)

    return {
        "schema": SCHEMA,
        "seed": seed,
        "ops_per_cell": ops,
        "systems": list(systems),
        "disabled_recovery": list(disabled),
        "sites": {
            name: {"layer": SITES[name].layer,
                   "hookpoint": SITES[name].hookpoint,
                   "op": SITES[name].op,
                   "expect": SITES[name].expect,
                   "doc": SITES[name].doc}
            for name in sites},
        "matrix": matrix,
        "totals": {"ops": total_ops, "injected": total_injected,
                   "outcomes": totals_outcomes},
        "recoveries": recoveries,
        "detection": detection,
        "summary": {
            "sites_exercised": sites_exercised,
            "recovered_percent": recovered_percent,
            "invariant_violations": totals_outcomes["invariant-violation"],
            "sites_detected": sites_detected,
        },
        "telemetry": counters,
        "crosscheck": _crosscheck(cells, counters),
    }


def render_matrix(artifact: Dict[str, Any]) -> str:
    """The site x system fault matrix as a fixed-width text table."""
    systems = artifact["systems"]
    short = {"denied-cleanly": "denied", "recovered": "recov",
             "degraded-to-legacy": "legacy", "invariant-violation": "VIOL",
             "unaffected": "clean"}
    width = max(len(site) for site in artifact["matrix"]) + 2
    col = 22
    lines = ["fault matrix (per cell: injected; outcome counts)",
             "".join(["site".ljust(width)]
                     + [system.ljust(col) for system in systems])]
    for site in sorted(artifact["matrix"]):
        row = [site.ljust(width)]
        for system in systems:
            entry = artifact["matrix"][site].get(system)
            if entry is None:
                row.append("-".ljust(col))
                continue
            parts = [f"{short[label]}:{count}"
                     for label, count in sorted(entry["outcomes"].items())
                     if count and label != "unaffected"]
            row.append(f"inj:{entry['injected']} "
                       f"{' '.join(parts)}".ljust(col))
        lines.append("".join(row).rstrip())
    summary = artifact["summary"]
    lines.append(
        f"sites exercised: {summary['sites_exercised']}  "
        f"recovered: {summary['recovered_percent']}%  "
        f"violations: {summary['invariant_violations']}  "
        f"crosscheck: {'ok' if artifact['crosscheck']['ok'] else 'FAILED'}")
    detection = artifact.get("detection", {})
    if detection:
        lines.append(
            f"audit detection: {summary.get('sites_detected', 0)}"
            f"/{len(detection)} sites flagged by >=1 blind detector")
        for site in sorted(detection):
            entry = detection[site]
            flag = ",".join(entry["detectors"]) if entry["detectors"] \
                else "UNDETECTED"
            lines.append(f"  {site.ljust(width)}{flag}")
    return "\n".join(lines)


def _csv(value: str) -> List[str]:
    return [item for item in (part.strip() for part in value.split(","))
            if item]


def _add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--systems", type=_csv, default=None,
                        metavar="A,B",
                        help="case-study systems to replay (default: "
                             + ",".join(CAMPAIGN_SYSTEMS) + ")")
    parser.add_argument("--sites", type=_csv, default=None, metavar="S,S",
                        help="fault sites to exercise (default: all "
                             f"{len(SITE_NAMES)})")
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS,
                        help="operations per (system, site) cell "
                             "(default: %(default)s)")
    parser.add_argument("--disable-recovery", type=_csv, default=[],
                        metavar="P,P",
                        help="recovery policies to disable (ablation): "
                             + ",".join(RECOVERY_POLICIES))


def _failures(artifact: Dict[str, Any]) -> List[str]:
    errors = []
    violations = artifact["summary"]["invariant_violations"]
    if violations:
        errors.append(f"{violations} invariant-violation(s)")
    if not artifact["crosscheck"]["ok"]:
        errors.append("telemetry crosscheck FAILED")
    return errors


CAMPAIGN = Campaign(
    name="faults", section="faults",
    help="Deterministic fault-injection campaign over the world-call "
         "datapath.",
    add_arguments=_add_arguments,
    run=lambda args: run_campaign(
        systems=args.systems, sites=args.sites, ops=args.ops,
        seed=args.seed, workers=args.workers,
        disabled=args.disable_recovery),
    render=render_matrix, failures=_failures)
