"""Testbed builders: canonical machine/VM configurations.

The evaluation (Section 7) uses "two VMs which are exactly the same" on
one Haswell host.  :func:`build_two_vm_machine` reproduces that setup;
:func:`enter_vm_kernel` moves the CPU into a VM's kernel context, which
most setup steps (hypercalls, world registration) require.
:class:`WorldPair` is the world-call testbed built on top of them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.authorization import Policy
from repro.core.call import CallRequest, WorldCallRuntime
from repro.core.world import WorldRegistry
from repro.guestos import Kernel, boot_kernel
from repro.hw.costs import (
    Cost,
    CostModel,
    DEFAULT_COST_MODEL,
    FEATURES_CROSSOVER,
    FEATURES_VMFUNC,
    HardwareFeatures,
)
from repro.hw.cpu import Mode
from repro.hw.vmx import ExitReason
from repro.hypervisor.vm import VirtualMachine
from repro.machine import Machine


def build_two_vm_machine(
        features: HardwareFeatures = FEATURES_VMFUNC,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        names: Tuple[str, str] = ("vm1", "vm2"),
) -> Tuple[Machine, VirtualMachine, Kernel, VirtualMachine, Kernel]:
    """One host, two identical guest VMs with booted kernels.

    Returns ``(machine, vm1, kernel1, vm2, kernel2)`` with the CPU left
    in the host context.
    """
    machine = Machine(features=features, cost_model=cost_model)
    vm1 = machine.hypervisor.create_vm(names[0])
    vm2 = machine.hypervisor.create_vm(names[1])
    kernel1 = boot_kernel(machine, vm1)
    kernel2 = boot_kernel(machine, vm2)
    return machine, vm1, kernel1, vm2, kernel2


def build_single_vm_machine(
        features: HardwareFeatures = FEATURES_VMFUNC,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        name: str = "vm1",
) -> Tuple[Machine, VirtualMachine, Kernel]:
    """One host, one guest VM with a booted kernel."""
    machine = Machine(features=features, cost_model=cost_model)
    vm = machine.hypervisor.create_vm(name)
    kernel = boot_kernel(machine, vm)
    return machine, vm, kernel


def enter_vm_kernel(machine: Machine, vm: VirtualMachine) -> None:
    """Put the CPU into ``vm``'s kernel context (exiting any current
    guest first).  Charges the real transition costs."""
    cpu = machine.cpu
    if cpu.mode is Mode.NON_ROOT:
        if cpu.vm_name == vm.name:
            if cpu.ring != 0:
                cpu.syscall_trap("to kernel")
            return
        machine.hypervisor.exit_to_host(cpu, ExitReason.HLT, "switch VM")
    machine.hypervisor.launch(cpu, vm)
    if cpu.ring != 0:
        cpu.syscall_trap("to kernel")


def exit_to_host(machine: Machine) -> None:
    """Return the CPU to the host kernel context."""
    cpu = machine.cpu
    if cpu.mode is Mode.NON_ROOT:
        machine.hypervisor.exit_to_host(cpu, ExitReason.HLT, "to host")


class WorldPair:
    """Two CrossOver VMs with a kernel world in each, joined by a
    16-page channel: the callee world serves a ``(name, *args)`` payload
    as that syscall of its executor process.  The transition trace is
    off and the CPU is left in the caller's kernel.

    ``policy`` is the callee's authorization policy (allow-all by
    default).
    """

    def __init__(self, policy: Optional[Policy] = None) -> None:
        machine, vm1, k1, vm2, k2 = build_two_vm_machine(
            features=FEATURES_CROSSOVER)
        machine.cpu.trace.enabled = False
        self.machine = machine
        self.cpu = machine.cpu
        self.vm1, self.k1 = vm1, k1
        self.vm2, self.k2 = vm2, k2
        self.registry = WorldRegistry(machine)
        self.runtime = WorldCallRuntime(machine, self.registry)
        self.executor = executor = k2.spawn("executor")

        # Locals, not ``self``: the registry ``self`` owns stores it.
        def entry(request: CallRequest):
            name, *args = request.payload
            return k2.syscalls.invoke(executor, name, *args)

        enter_vm_kernel(machine, vm1)
        self.caller = self.registry.create_kernel_world(k1, label="K(vm1)")
        enter_vm_kernel(machine, vm2)
        self.callee = self.registry.create_kernel_world(
            k2, handler=entry, policy=policy, service_process=self.executor,
            label="K(vm2)")
        enter_vm_kernel(machine, vm1)
        self.runtime.setup_channel(self.caller, self.callee, pages=16)
        self.cpu.write_cr3(k1.master_page_table)

    def null_call(self, mechanism: Optional[str] = None) -> int:
        """One minimal-mode ``getppid`` world call (the lmbench NULL
        call); returns its modeled cycles."""
        before = self.cpu.perf.cycles
        self.runtime.call(self.caller, self.callee.wid, ("getppid",),
                          authorize=False, mechanism=mechanism)
        return self.cpu.perf.cycles - before

    def idle(self, cycles: int) -> None:
        """Advance the modeled clock without issuing calls."""
        self.cpu.perf.charge("idle", Cost(0, cycles))

    def close(self) -> None:
        """Release the machine (``Machine.close``); the pair must not be
        used again."""
        self.machine.close()
