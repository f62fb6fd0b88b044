"""Experiment runners: one function per paper table/figure.

These are the single source of truth used by both the pytest benchmark
suite (``benchmarks/``) and the ``crossover paper`` campaign.  Every runner
returns plain data structures (dicts/lists) carrying measured values
next to the paper's reference numbers.
"""

from __future__ import annotations

from contextlib import closing
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.calibration import (
    FIGURE2_CROSSINGS,
    TABLE4_US,
    TABLE5_MS,
    TABLE6_MBS,
    TABLE7_INSNS,
)
from repro.analysis.measure import (Measurement, measure_callable,
                                    measured_region)
from repro.core.call import MECHANISMS, WorldCallRuntime
from repro.errors import ConfigurationError
from repro.guestos.kernel import Kernel, SyscallRedirector
from repro.guestos.process import Process
from repro.hw.costs import FEATURES_VMFUNC
from repro.machine import Machine
from repro.systems import HyperShell, Proxos, ShadowContext, Tahoma
from repro.testbed import (WorldPair, build_single_vm_machine,
                           build_two_vm_machine, enter_vm_kernel)
from repro.workloads.lmbench import (
    HostShellSurface,
    LibOSSurface,
    LmbenchSuite,
    NativeSurface,
    RedirectedSurface,
    SyscallSurface,
)
from repro.workloads.openssh import OpenSSHTransfer
from repro.workloads.utilities import (
    UTILITIES,
    normalized_output,
    prepare_inspection_environment,
    run_utility,
)

SYSTEMS = {
    "Proxos": Proxos,
    "HyperShell": HyperShell,
    "Tahoma": Tahoma,
    "ShadowContext": ShadowContext,
}

#: Table 4 rows -> LmbenchSuite method and per-iteration divisor
#: (NULL I/O performs a read *and* a write; the row reports the mean).
TABLE4_OPS: Dict[str, Tuple[str, int]] = {
    "NULL system call": ("null_syscall", 1),
    "NULL I/O": ("null_io", 2),
    "open & close": ("open_close", 1),
    "stat": ("stat", 1),
    "pipe": ("pipe_round_trip", 1),
}


def _tune(machine: Machine) -> None:
    """Switch the transition trace off on an experiment machine.

    The table runners never read the trace, and an untraced CPU runs the
    Figure-4 round trip as two straight-line halves (the figure runners,
    which *do* read the trace, keep it enabled).  Simulated counters are
    the same either way."""
    machine.cpu.trace.enabled = False


def _surface_for(system_name: str, optimized: bool,
                 keep_trace: bool = False) -> SyscallSurface:
    """Build a fresh two-VM machine running one system variant and
    return the measurement surface for it."""
    machine, vm1, k1, vm2, k2 = build_two_vm_machine()
    if not keep_trace:
        _tune(machine)
    system = SYSTEMS[system_name](machine, vm1, vm2, optimized=optimized)
    enter_vm_kernel(machine, vm1)
    system.setup()
    enter_vm_kernel(machine, vm1)
    if system_name == "Proxos" and optimized:
        return LibOSSurface(system)
    if system_name == "HyperShell" and not optimized:
        return HostShellSurface(system)
    return RedirectedSurface(system)


def _native_surface() -> SyscallSurface:
    machine, vm, kernel = build_single_vm_machine()
    _tune(machine)
    return NativeSurface(kernel)


def _measure_op(surface: SyscallSurface, op: str, divisor: int,
                iterations: int = 5) -> Measurement:
    suite = LmbenchSuite(surface)
    suite.setup()
    machine = _machine_of(surface)
    method = getattr(suite, op)
    method()                                    # warm up
    with measured_region(machine, op, iterations * divisor) as region:
        for _ in range(iterations):
            method()
    assert region.measurement is not None
    return region.measurement


def _machine_of(surface: SyscallSurface) -> Machine:
    if isinstance(surface, HostShellSurface):
        return surface.machine
    if isinstance(surface, LibOSSurface):
        return surface.kernel.machine
    assert isinstance(surface, NativeSurface)
    return surface.kernel.machine


# ---------------------------------------------------------------------------
# Table 4 — microbenchmarks
# ---------------------------------------------------------------------------

def table4_cell(system_name: Optional[str], optimized: bool,
                iterations: int = 5) -> Dict[str, float]:
    """One Table-4 column on a fresh machine: all five ops, in row
    order, on one surface.  ``system_name=None`` is the native column.

    Module-level and argument-picklable so the parallel runner can ship
    it to a worker process; the serial runner calls the same function,
    so both produce identical simulated numbers by construction.
    """
    if system_name is None:
        surface = _native_surface()
    else:
        surface = _surface_for(system_name, optimized)
    with closing(_machine_of(surface)):
        return {op: _measure_op(surface, method, divisor,
                                iterations).microseconds
                for op, (method, divisor) in TABLE4_OPS.items()}


def table4_specs(iterations: int = 5) -> List[Tuple[str, tuple]]:
    """The cell work-list of :func:`run_table4` (native first, then
    every system x variant), as ``(runner_name, args)`` pairs."""
    specs: List[Tuple[str, tuple]] = [("table4", (None, False, iterations))]
    for system_name in SYSTEMS:
        for optimized in (False, True):
            specs.append(("table4", (system_name, optimized, iterations)))
    return specs


def merge_table4(cells: List[Tuple[tuple, Dict[str, float]]]
                 ) -> Dict[str, Dict[str, Any]]:
    """Assemble per-cell values back into the Table-4 result layout."""
    results: Dict[str, Dict[str, Any]] = {
        op: {"systems": {}, "paper": TABLE4_US[op]} for op in TABLE4_OPS}
    for (system_name, optimized, _), value in cells:
        for op, latency in value.items():
            if system_name is None:
                results[op]["native"] = latency
            else:
                cell = results[op]["systems"].setdefault(system_name,
                                                         [None, None])
                cell[1 if optimized else 0] = latency
    return results


def run_table4(iterations: int = 5) -> Dict[str, Dict[str, Any]]:
    """Measure every Table-4 cell.

    Returns ``{op: {"native": us, "systems": {name: (orig, opt)},
    "paper": ...}}``.
    """
    return merge_table4([(args, CELL_RUNNERS[name](*args))
                         for name, args in table4_specs(iterations)])


# ---------------------------------------------------------------------------
# Table 5 — utility tools
# ---------------------------------------------------------------------------

def _table5_native(tool: str) -> Tuple[float, str]:
    machine, vm1, k1, vm2, k2 = build_two_vm_machine()
    with closing(machine):
        _tune(machine)
        prepare_inspection_environment(k2)
        surface = NativeSurface(k2)
        surface.prepare()
        return _run_utility(machine, tool, surface)


def _table5_redirected(tool: str, optimized: bool) -> Tuple[float, str]:
    machine, vm1, k1, vm2, k2 = build_two_vm_machine()
    with closing(machine):
        _tune(machine)
        prepare_inspection_environment(k2)
        system = ShadowContext(machine, vm1, vm2, optimized=optimized)
        enter_vm_kernel(machine, vm1)
        system.setup()
        surface = RedirectedSurface(system)
        surface.prepare()
        return _run_utility(machine, tool, surface)


def _run_utility(machine: Machine, tool: str, surface: SyscallSurface
                 ) -> Tuple[float, str]:
    """Run ``tool`` once on a prepared surface: (modeled ms, output)."""
    run = None

    def do() -> None:
        nonlocal run
        run = run_utility(tool, surface)

    m = measure_callable(machine, do, label=tool, iterations=1, warmup=0)
    assert run is not None
    return m.milliseconds, run.output


def table5_cell(tool: str) -> Dict[str, Any]:
    """One Table-5 row: the three configurations of one utility, each
    on a fresh machine (picklable parallel-runner unit)."""
    native, native_out = _table5_native(tool)
    orig, orig_out = _table5_redirected(tool, optimized=False)
    opt, opt_out = _table5_redirected(tool, optimized=True)
    return {
        "native": native, "original": orig, "crossover": opt,
        "paper": TABLE5_MS[tool],
        "outputs_consistent": (
            normalized_output(tool, native_out)
            == normalized_output(tool, orig_out)
            == normalized_output(tool, opt_out)),
    }


def table5_specs() -> List[Tuple[str, tuple]]:
    """The per-tool work-list of :func:`run_table5`."""
    return [("table5", (tool,)) for tool in UTILITIES]


def merge_table5(cells: List[Tuple[tuple, Dict[str, Any]]]
                 ) -> Dict[str, Dict[str, Any]]:
    """Assemble per-tool rows back into the Table-5 result layout."""
    return {args[0]: value for args, value in cells}


def run_table5() -> Dict[str, Dict[str, Any]]:
    """Measure every Table-5 cell (ms): native / w/o / w/ CrossOver."""
    return merge_table5([(args, CELL_RUNNERS[name](*args))
                         for name, args in table5_specs()])


# ---------------------------------------------------------------------------
# Table 6 — OpenSSH throughput
# ---------------------------------------------------------------------------

def table6_cell(size: int) -> Dict[str, Any]:
    """One Table-6 row: the three scp modes at one transfer size."""
    row: Dict[str, Any] = {"paper": TABLE6_MBS.get(size)}
    for mode in ("native", "crossover", "baseline"):
        machine, vm1, k1, vm2, k2 = build_two_vm_machine(
            names=("private", "public"))
        with closing(machine):
            _tune(machine)
            transfer = OpenSSHTransfer(machine, k1, k2, mode=mode)
            transfer.setup(size)
            row[mode] = transfer.run().throughput_mb_s
    return row


def table6_specs(sizes_mb: Tuple[int, ...] = (128, 256, 512, 1024)
                 ) -> List[Tuple[str, tuple]]:
    """The per-size work-list of :func:`run_table6`."""
    return [("table6", (size,)) for size in sizes_mb]


def merge_table6(cells: List[Tuple[tuple, Dict[str, Any]]]
                 ) -> Dict[int, Dict[str, Any]]:
    """Assemble per-size rows back into the Table-6 result layout."""
    return {args[0]: value for args, value in cells}


def run_table6(sizes_mb: Tuple[int, ...] = (128, 256, 512, 1024)
               ) -> Dict[int, Dict[str, Any]]:
    """Measure scp throughput for every size x mode."""
    return merge_table6([(args, CELL_RUNNERS[name](*args))
                         for name, args in table6_specs(sizes_mb)])


# ---------------------------------------------------------------------------
# Table 7 — instruction counts
# ---------------------------------------------------------------------------

#: Table 7 rows -> suite method.
TABLE7_OPS = {
    "getppid": "getppid",
    "stat": "stat",
    "read": "read_dev_zero",
    "write": "write_dev_null",
    "fstat": "fstat",
    "open/close": "open_close",
}


class _WorldCallRedirector(SyscallRedirector):
    """Routes syscalls through the full-CrossOver world_call runtime."""

    def __init__(self, runtime: WorldCallRuntime, caller, callee_wid: int
                 ) -> None:
        self.runtime = runtime
        self.caller = caller
        self.callee_wid = callee_wid

    def should_redirect(self, proc, name, args) -> bool:
        from repro.systems.base import LOCAL_ONLY_SYSCALLS

        return name not in LOCAL_ONLY_SYSCALLS

    def redirect(self, proc, name, args, kwargs):
        # The caller world is the kernel's own address space; a syscall
        # arrives on the current process's page tables, so the
        # dispatcher loads the kernel context around the world call
        # (the Section 5.3 software support).
        cpu = self.runtime.machine.cpu
        kernel = self.caller.kernel
        saved_pt = cpu.page_table
        cpu.write_cr3(kernel.master_page_table)
        try:
            return self.runtime.call(self.caller, self.callee_wid,
                                     (name,) + tuple(args), authorize=False)
        finally:
            cpu.write_cr3(saved_pt)


class _MinimalHypervisorRedirector(SyscallRedirector):
    """The Table-7 "w/o CrossOver" path: the leanest hypervisor-mediated
    redirection (the hypervisor's one frame, with the syscall executed
    in the remote kernel) and no dummy-process context switch —
    matching the paper's QEMU setup where "there are rare context
    switches during this test"."""

    def __init__(self, machine: Machine, local_vm, remote_vm,
                 executor: Process) -> None:
        self.machine = machine
        self.local_vm = local_vm
        self.remote_vm = remote_vm
        self.executor = executor

    def should_redirect(self, proc, name, args) -> bool:
        from repro.systems.base import LOCAL_ONLY_SYSCALLS

        return name not in LOCAL_ONLY_SYSCALLS

    def redirect(self, proc, name, args, kwargs):
        remote: Kernel = self.remote_vm.kernel
        return self.machine.hypervisor.redirect(
            self.machine.cpu, self.local_vm, self.remote_vm,
            lambda: remote.execute_syscall(self.executor, name, *args,
                                           **kwargs))


def _crossover_surface() -> NativeSurface:
    """Two VMs on CrossOver hardware with kernel worlds + world_call
    redirection (authorize off, per Section 7.2)."""
    pair = WorldPair()
    pair.k1.install_redirector(_WorldCallRedirector(
        pair.runtime, pair.caller, pair.callee.wid))
    # Reuse RedirectedSurface mechanics without a CrossWorldSystem.
    surface = NativeSurface(pair.k1)
    surface.label = "crossover-worldcall"
    return surface


def _baseline_redirect_surface() -> NativeSurface:
    machine, vm1, k1, vm2, k2 = build_two_vm_machine()
    _tune(machine)
    executor = k2.spawn("redirect-executor")
    redirector = _MinimalHypervisorRedirector(machine, vm1, vm2, executor)
    k1.install_redirector(redirector)
    enter_vm_kernel(machine, vm1)
    surface = NativeSurface(k1)
    surface.label = "hypervisor-redirect"
    return surface


_TABLE7_SURFACES = {
    "native": _native_surface,
    "crossover": _crossover_surface,
    "baseline": _baseline_redirect_surface,
}


def table7_cell(key: str, iterations: int = 5) -> Dict[str, float]:
    """One Table-7 column: every row's instruction count on one fresh
    surface (the surface persists across rows, as in the paper's
    single-boot measurement)."""
    surface = _TABLE7_SURFACES[key]()
    machine = _machine_of(surface)
    with closing(machine):
        suite = LmbenchSuite(surface)
        suite.setup()
        return {row: measure_callable(machine, getattr(suite, method),
                                      label=row,
                                      iterations=iterations).instructions
                for row, method in TABLE7_OPS.items()}


def table7_specs(iterations: int = 5) -> List[Tuple[str, tuple]]:
    """The per-surface work-list of :func:`run_table7`."""
    return [("table7", (key, iterations)) for key in _TABLE7_SURFACES]


def merge_table7(cells: List[Tuple[tuple, Dict[str, float]]]
                 ) -> Dict[str, Dict[str, Any]]:
    """Assemble per-surface columns back into the Table-7 layout."""
    results: Dict[str, Dict[str, Any]] = {
        row: {"paper": TABLE7_INSNS[row]} for row in TABLE7_OPS}
    for (key, _), value in cells:
        for row, insns in value.items():
            results[row][key] = insns
    return results


def run_table7(iterations: int = 5) -> Dict[str, Dict[str, Any]]:
    """Measure instruction counts: native / w/ CrossOver / w/o."""
    return merge_table7([(args, CELL_RUNNERS[name](*args))
                         for name, args in table7_specs(iterations)])


# ---------------------------------------------------------------------------
# Three-way mechanism comparison — baseline / world_call / switchless
# ---------------------------------------------------------------------------

def mechanism_cell(mechanism: str, iterations: int) -> Dict[str, Any]:
    """One Table-4 transport cell, on a fresh machine: the five lmbench
    ops through a redirected-syscall surface (rows in microseconds).

    ``mechanism`` routes the redirected calls: ``"baseline"`` is the
    trap-based world-switch path, ``"world_call"`` the paper's VMFUNC
    transport, ``"switchless"`` a force-mode worker-context engine.
    The control columns run with *no* engine installed, so an outer
    adaptive engine cannot divert them.  Module-level and picklable,
    so the parallel runner can ship it to a worker process.
    """
    from repro import switchless as _sl
    from repro.switchless import SwitchlessEngine

    if mechanism not in MECHANISMS:
        raise ConfigurationError(
            f"unknown mechanism {mechanism!r}; expected one of "
            f"{MECHANISMS}")
    engine = (SwitchlessEngine(force=True) if mechanism == "switchless"
              else None)
    with _sl.scoped(engine):
        surface = (_baseline_redirect_surface() if mechanism == "baseline"
                   else _crossover_surface())
        with closing(_machine_of(surface)):
            return {"mechanism": mechanism, "rows": {
                op: _measure_op(surface, method, divisor,
                                iterations).microseconds
                for op, (method, divisor) in TABLE4_OPS.items()}}


# ---------------------------------------------------------------------------
# Figure 2 — baseline call paths
# ---------------------------------------------------------------------------

def run_figure2() -> Dict[str, Dict[str, Any]]:
    """Trace one redirected call per system baseline; returns the world
    path and the crossing count next to the paper's figure count."""
    results: Dict[str, Dict[str, Any]] = {}
    for system_name in SYSTEMS:
        surface = _surface_for(system_name, optimized=False,
                               keep_trace=True)
        machine = _machine_of(surface)
        with closing(machine):
            suite = LmbenchSuite(surface)
            suite.setup()
            suite.null_syscall()                    # warm
            mark = machine.cpu.trace.mark
            suite.null_syscall()
            path = machine.cpu.trace.path(mark)
            events = machine.cpu.trace.since(mark)
        from repro.analysis.traceviz import render_sequence

        results[system_name] = {
            "path": path,
            "crossings": len(path) - 1,
            "events": [str(e) for e in events],
            "diagram": render_sequence(events),
            "paper_crossings": FIGURE2_CROSSINGS[system_name],
        }
    return results


# ---------------------------------------------------------------------------
# Figure 4 — the cross-VM syscall step trace
# ---------------------------------------------------------------------------

def run_figure4() -> Dict[str, Any]:
    """One VMFUNC cross-VM syscall, with its transition trace."""
    from repro.systems.base import install_redirection

    machine, vm1, k1, vm2, k2 = build_two_vm_machine(
        features=FEATURES_VMFUNC)
    with closing(machine):
        system = ShadowContext(machine, vm1, vm2, optimized=True)
        enter_vm_kernel(machine, vm1)
        system.setup()
        enter_vm_kernel(machine, vm1)
        app = k1.spawn("app")
        install_redirection(system)
        k1.enter_user(app)
        app.syscall("getppid")                       # warm
        mark = machine.cpu.trace.mark
        result = app.syscall("getppid")
        events = machine.cpu.trace.since(mark)
    return {
        "result": result,
        "events": [str(e) for e in events],
        "vmfunc_switches": sum(1 for e in events
                               if e.kind == "vmfunc_ept_switch"),
    }


# ---------------------------------------------------------------------------
# The cell registry: every parallelizable unit of work, by name.
#
# Serial runners look cells up here too, so serial and parallel sweeps
# execute literally the same functions; specs are (name, args) pairs —
# plain picklable data a worker process can receive.
# ---------------------------------------------------------------------------

CELL_RUNNERS: Dict[str, Callable[..., Any]] = {
    "table4": table4_cell,
    "table5": table5_cell,
    "table6": table6_cell,
    "table7": table7_cell,
    "mechanism": mechanism_cell,
}

#: Spec builder and merge function per table, for sweep drivers.
TABLE_PLANS = {
    "table4": (table4_specs, merge_table4),
    "table5": (table5_specs, merge_table5),
    "table6": (table6_specs, merge_table6),
    "table7": (table7_specs, merge_table7),
}
