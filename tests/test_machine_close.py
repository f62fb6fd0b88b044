"""Machines that free themselves: ``Machine.close()`` breaks the
reference cycles a finished machine owns, so reference counting frees
it at once and a runner leaves nothing for the garbage collector."""

import gc

import pytest

from repro.analysis import experiments
from repro.core.call import WorldCallRuntime
from repro.core.world import WorldRegistry
from repro.faults.campaign import run_fault_cell
from repro.hw.costs import FEATURES_CROSSOVER
from repro.machine import Machine
from repro.systems import ShadowContext
from repro.systems.base import install_redirection
from repro.testbed import WorldPair, build_two_vm_machine, enter_vm_kernel


def garbage_after(run) -> int:
    """Objects only the collector could free once ``run()`` returns,
    counted with automatic collection off.  ``run`` goes once untimed
    first, so one-time imports and module caches do not count."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def world_pair_call() -> None:
    pair = WorldPair()
    pair.null_call()
    pair.close()


RUNNERS = {
    "table4-baseline": lambda: experiments.table4_cell("Tahoma", False, 1),
    "table4-crossover": lambda: experiments.table4_cell(
        "ShadowContext", True, 1),
    "table5-uptime": lambda: experiments.table5_cell("uptime"),
    "table7-crossover": lambda: experiments.table7_cell("crossover", 1),
    "world-pair": world_pair_call,
    "faults-cell": lambda: run_fault_cell(
        "Proxos", "hw.wt_cache_incoherence", 2, 42, ()),
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runner_leaves_no_garbage(name):
    assert garbage_after(RUNNERS[name]) == 0


def loaded_machine() -> Machine:
    """A two-VM CrossOver machine carrying a system with a cross-VM
    pair, an installed redirector, a world registry and a channel, each
    used once."""
    machine, vm1, k1, vm2, k2 = build_two_vm_machine(
        features=FEATURES_CROSSOVER)
    system = ShadowContext(machine, vm1, vm2, optimized=True)
    enter_vm_kernel(machine, vm1)
    system.setup()
    install_redirection(system)
    app = k1.spawn("app")
    enter_vm_kernel(machine, vm1)
    k1.enter_user(app)
    app.syscall("getppid")
    k1.to_kernel()

    registry = WorldRegistry(machine)
    runtime = WorldCallRuntime(machine, registry)
    executor = k2.spawn("executor")

    def entry(request):
        name, *args = request.payload
        return k2.syscalls.invoke(executor, name, *args)

    caller = registry.create_kernel_world(k1)
    enter_vm_kernel(machine, vm2)
    callee = registry.create_kernel_world(k2, handler=entry,
                                          service_process=executor)
    enter_vm_kernel(machine, vm1)
    runtime.setup_channel(caller, callee, pages=4)
    machine.cpu.write_cr3(k1.master_page_table)
    runtime.call(caller, callee.wid, ("getppid",), authorize=False)
    return machine


def test_close_frees_a_loaded_machine():
    def run() -> None:
        loaded_machine().close()

    assert garbage_after(run) == 0


def test_unclosed_machine_is_garbage():
    """The guard above can fail: without ``close()`` the same machine
    is left to the collector."""
    assert garbage_after(loaded_machine) > 0


def test_close_is_idempotent():
    machine = loaded_machine()
    machine.close()
    assert machine.closed
    machine.close()
    assert machine.closed
    assert machine.hypervisor.vms == {}
