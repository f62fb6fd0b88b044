"""Executed crossings of every runnable Table-1 baseline against its
published path (``SystemPath.actual_crossings``).

One warm call of each baseline runs with the transition trace on; the
world switches it executes are its ``vmexit``, ``vmentry``,
``syscall_trap`` and ``sysret`` events outside the body (the work the
hypervisor or the kernel delivers to the callee).  A baseline whose
count differs from the model is a named exception, pinned at the count
it executes; EXPERIMENTS.md gives each one's reason next to the
Table-1 section.
"""

import pytest

from repro.analysis import experiments
from repro.hw.costs import FEATURES_CROSSOVER
from repro.systems.fuse import UserSpaceFS
from repro.systems.overshadow import Overshadow
from repro.systems.pathmodels import TABLE1_SYSTEMS
from repro.systems.splitdriver import SplitDriver
from repro.testbed import (build_single_vm_machine, build_two_vm_machine,
                           enter_vm_kernel)

CROSSINGS = {"vmexit", "vmentry", "syscall_trap", "sysret"}

#: Baselines whose executed path is not the published one, with the
#: crossings they execute.
EXCEPTIONS = {"Proxos": 9, "Tahoma": 11, "HyperShell": 8,
              "ShadowContext": 9, "Overshadow": 10}


def _marked(trace, body, spans):
    """``body``, recording the trace's sequence numbers around it."""
    def run(*args, **kwargs):
        start = trace.mark
        try:
            return body(*args, **kwargs)
        finally:
            spans.append((start, trace.mark))
    return run


def _mark_redirected_bodies(machine, monkeypatch, spans):
    hypervisor = machine.hypervisor
    redirect = hypervisor.redirect

    def marked(cpu, from_vm, to_vm, body, *args, **kwargs):
        return redirect(cpu, from_vm, to_vm,
                        _marked(cpu.trace, body, spans), *args, **kwargs)

    monkeypatch.setattr(hypervisor, "redirect", marked)


def _case_study(name):
    """One ``getppid`` as Table 4 drives the system's baseline."""
    def build(monkeypatch, spans):
        surface = experiments._surface_for(name, False, keep_trace=True)
        machine = experiments._machine_of(surface)
        surface.prepare()
        _mark_redirected_bodies(machine, monkeypatch, spans)
        return machine, lambda: surface.syscall("getppid")
    return build


def _overshadow(monkeypatch, spans):
    machine, vm, kernel = build_single_vm_machine(
        features=FEATURES_CROSSOVER)
    shadow = Overshadow(machine, kernel, optimized=False)
    shadow.setup()
    enter_vm_kernel(machine, vm)
    kernel.enter_user(shadow.app)
    _mark_redirected_bodies(machine, monkeypatch, spans)
    return machine, lambda: shadow.cloaked_syscall("getpid")


def _fuse(monkeypatch, spans):
    machine, vm, kernel = build_single_vm_machine(
        features=FEATURES_CROSSOVER)
    fuse = UserSpaceFS(machine, kernel, optimized=False)
    enter_vm_kernel(machine, vm)
    fuse.setup()
    app = kernel.spawn("app")
    kernel.enter_user(app)
    monkeypatch.setattr(fuse.daemon, "serve",
                        _marked(machine.cpu.trace, fuse.daemon.serve, spans))
    return machine, lambda: app.syscall("stat", "/mnt")


def _split_driver(mode):
    def build(monkeypatch, spans):
        machine, guest, guest_os, _dom0, dom0_os = build_two_vm_machine(
            names=("guest", "dom0"))
        driver = SplitDriver(machine, guest_os, dom0_os, mode=mode)
        driver.setup()
        enter_vm_kernel(machine, guest)
        _mark_redirected_bodies(machine, monkeypatch, spans)
        return machine, lambda: driver.transmit(b"\x00" * 64)
    return build


#: Table-1 name -> builder of (machine, one call of its baseline).
#: MiniBox, CloudVisor and Xen-Blanket have no runnable baseline.
BASELINES = {
    "Proxos": _case_study("Proxos"),
    "Tahoma": _case_study("Tahoma"),
    "HyperShell": _case_study("HyperShell"),
    "ShadowContext": _case_study("ShadowContext"),
    "Overshadow": _overshadow,
    "FUSE": _fuse,
    "Xen emulated devices": _split_driver("emulated"),
    "ClickOS": _split_driver("paravirt"),
}


def executed_crossings(name, monkeypatch):
    spans = []
    machine, call = BASELINES[name](monkeypatch, spans)
    call()
    mark = machine.cpu.trace.mark
    call()
    (start, end), = spans[1:]
    return [e for e in machine.cpu.trace.since(mark)
            if e.kind in CROSSINGS and not start <= e.seq < end]


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_executed_crossings_match_table1(name, monkeypatch):
    model = {s.name: s for s in TABLE1_SYSTEMS}[name]
    expected = EXCEPTIONS.get(name, model.actual_crossings)
    assert len(executed_crossings(name, monkeypatch)) == expected


def test_exceptions_are_runnable_mismatches():
    models = {s.name: s.actual_crossings for s in TABLE1_SYSTEMS}
    assert set(EXCEPTIONS) <= set(BASELINES)
    assert all(EXCEPTIONS[name] != models[name] for name in EXCEPTIONS)
