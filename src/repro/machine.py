"""The simulated machine: memory + CPUs + hypervisor.

A :class:`Machine` is the root object of every simulation.  It owns host
physical memory, the CPU core(s), the cost model and hardware feature
set, the CrossOver world table (hardware-visible, hypervisor-managed)
and the KVM-like hypervisor.

Typical use::

    from repro.machine import Machine
    from repro.hw.costs import FEATURES_VMFUNC

    machine = Machine(features=FEATURES_VMFUNC)
    vm1 = machine.hypervisor.create_vm("vm1")
    vm2 = machine.hypervisor.create_vm("vm2")
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SimulationError
from repro.hw.costs import (
    CostModel,
    DEFAULT_COST_MODEL,
    FEATURES_VMFUNC,
    HardwareFeatures,
)
from repro.hw.cpu import CPU, Mode, Ring
from repro.hw.mem import HostMemory, PAGE_SIZE, Frame
from repro.hw.paging import PageTable
from repro.hw.world_table import WorldTable


class Machine:
    """One simulated physical machine."""

    def __init__(self, *, features: HardwareFeatures = FEATURES_VMFUNC,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 memory_bytes: int = 32 << 30, cpus: int = 1,
                 world_table: Optional[WorldTable] = None) -> None:
        if cpus < 1:
            raise SimulationError("a machine needs at least one CPU")
        self.features = features
        self.cost_model = cost_model
        self.memory = HostMemory(memory_bytes)

        #: The host kernel's address space (identity-mapped).
        self.host_page_table = PageTable("host-kernel")

        self.cpus: List[CPU] = [
            CPU(cost_model, features, cpu_id=i) for i in range(cpus)]
        for cpu in self.cpus:
            cpu.mode = Mode.ROOT
            cpu.ring = int(Ring.KERNEL)
            cpu.page_table = self.host_page_table
            cpu.vm_name = "host"

        #: The CrossOver world table (only meaningful with the extension,
        #: but always present so the hypervisor code is uniform).  The
        #: fleet engine passes a :class:`ShardedWorldTable` here.
        self.world_table = world_table if world_table is not None \
            else WorldTable()

        # Deferred imports: these packages import this module's
        # neighbours but not Machine itself.
        from repro.guestos.net import VirtualNetwork
        from repro.hypervisor.hypervisor import Hypervisor

        self.hypervisor = Hypervisor(self)

        #: The machine-wide virtual network fabric (ports + delivery).
        self.network = VirtualNetwork()

        #: Set by :meth:`close`.
        self.closed = False

    @property
    def cpu(self) -> CPU:
        """The primary (boot) CPU."""
        return self.cpus[0]

    # ------------------------------------------------------------------
    # host memory helpers
    # ------------------------------------------------------------------

    def alloc_host_page(self, label: str = "") -> Frame:
        """Allocate a host frame and identity-map it in the host kernel
        address space (supervisor-only)."""
        frame = self.memory.allocate(label)
        self.host_page_table.map(frame.hpa, frame.hpa, user=False)
        return frame

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Break the reference cycles this machine owns.

        Kernels, processes, procfs, the syscall tables and the
        hypervisor all point back up to the machine, so a finished
        machine is one large cycle that only a full garbage collection
        would free.  ``close()`` clears those back-references layer by
        layer, and reference counting frees the machine as soon as its
        last user lets go.  Call it after every result has been read; a
        closed machine must not be used again.  Idempotent.
        """
        if self.closed:
            return
        self.closed = True
        for vm in self.hypervisor.vms.values():
            if vm.kernel is not None:
                vm.kernel.close()
        self.hypervisor.close()
        self.network.close()

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero perf counters and traces on every CPU."""
        for cpu in self.cpus:
            cpu.perf.reset()
            cpu.trace.clear()
            cpu.tlb.reset()
