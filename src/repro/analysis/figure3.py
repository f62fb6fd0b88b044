"""Figure 3 — the world-call process on a multi-core machine.

The figure shows a 4-CPU machine: while other CPUs keep running their
VMs, the CPU whose process issues ``world_call`` switches — alone — to
the callee's world and back.  This module reproduces the scenario
executable-ly: per-CPU world states are snapshotted before, during and
after the call, and only the calling CPU's state changes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.guestos import boot_kernel
from repro.guestos.kernel import KERNEL_TEXT_GVA
from repro.hw.costs import FEATURES_CROSSOVER
from repro.machine import Machine


def run_figure3() -> Dict[str, object]:
    """Execute the Figure-3 scenario; returns per-phase CPU states."""
    machine = Machine(features=FEATURES_CROSSOVER, cpus=4)
    hypervisor = machine.hypervisor

    vm1 = hypervisor.create_vm("vm1")
    vm2 = hypervisor.create_vm("vm2")
    k1 = boot_kernel(machine, vm1, machine.cpus[1])   # vCPU on CPU-2
    k2 = boot_kernel(machine, vm2, machine.cpus[2])

    # CPUs 1/2 run VM-1 (user-1, user-2), CPUs 3/4 run VM-2.
    user1 = k1.spawn("user-1")
    user2 = k1.spawn("user-2")
    hypervisor.launch(machine.cpus[0], vm1)
    machine.cpus[0].write_cr3(user1.page_table)
    machine.cpus[0].sysret("user-1 runs")
    hypervisor.launch(machine.cpus[1], vm1)
    k1.enter_user(user2)
    hypervisor.launch(machine.cpus[2], vm2)
    machine.cpus[2].write_cr3(k2.master_page_table)
    # CPU-4: VM-2 user context.
    user4 = k2.spawn("user-4")
    hypervisor.launch(machine.cpus[3], vm2)
    machine.cpus[3].write_cr3(user4.page_table)
    machine.cpus[3].sysret("user-4 runs")

    # The callee world in VM-2 (its kernel).
    callee = hypervisor.worlds.create_world(
        vm=vm2, ring=0, page_table=k2.master_page_table,
        pc=KERNEL_TEXT_GVA)
    # The caller world: user-2's context in VM-1.
    caller = hypervisor.worlds.create_world(
        vm=vm1, ring=3, page_table=user2.page_table, pc=0x0040_0000)

    def snapshot() -> List[str]:
        return [cpu.world_label for cpu in machine.cpus]

    before = snapshot()
    # CPU-2 (index 1) issues the world call.
    hypervisor.worlds.world_call(machine.cpus[1], callee.wid)
    during = snapshot()
    hypervisor.worlds.world_call(machine.cpus[1], caller.wid)
    after = snapshot()

    return {
        "before": before,
        "during": during,
        "after": after,
        "calling_cpu": 1,
        "caller_wid": caller.wid,
        "callee_wid": callee.wid,
    }
