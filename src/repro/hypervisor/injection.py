"""Virtual interrupt injection.

Baseline (non-CrossOver) cross-VM systems deliver work to a peer VM by
asking the hypervisor to inject a virtual interrupt: Proxos injects the
redirected syscall into the commodity OS's host process, HyperShell
wakes its in-guest helper, ShadowContext kicks its dummy process.  The
injector queues the vector on the VM and delivers it through the guest
IDT at the next VM entry.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro import faults as _faults
from repro import observe
from repro.hw.cpu import CPU
from repro.hypervisor.vm import VirtualMachine

#: Conventional vectors used by the reimplemented systems.
VECTOR_SYSCALL_REDIRECT = 0xF3
VECTOR_TIMER = 0x20
VECTOR_NET_RX = 0xA0


class Injector:
    """Hypervisor-side virtual interrupt injection."""

    def __init__(self) -> None:
        self.injected = 0
        #: Per-vector injection counts (vector -> total), alongside the
        #: global total; surfaced as the ``hypervisor.virq_injected``
        #: counter family when a telemetry session is installed.
        self.injected_by_vector: Dict[int, int] = {}

    def inject(self, cpu: CPU, vm: VirtualMachine, vector: int,
               detail: str = "") -> None:
        """Queue ``vector`` on ``vm`` (hypervisor-side work is charged)."""
        cpu.require_root("virq injection")
        cpu.charge("virq_inject")
        vm.queue_virq(vector, detail)
        self.injected += 1
        self.injected_by_vector[vector] = \
            self.injected_by_vector.get(vector, 0) + 1
        observers = observe.observers
        if observers is not None:
            observe.publish(observers, observe.Event(
                "hv", "virq_inject", to=vm.name, detail=f"vector {vector:#x}",
                ref=vector))

    def deliver_pending(self, cpu: CPU, vm: VirtualMachine) -> int:
        """Deliver every queued virq through the guest IDT.

        Must be called with the CPU already inside ``vm`` (after a VM
        entry).  Returns the number of interrupts delivered.
        """
        if _faults._engine is not None:
            _faults._engine.fire("hv.inject.deliver", injector=self,
                                 cpu=cpu, vm=vm)
        delivered = 0
        while True:
            item = vm.take_virq()
            if item is None:
                return delivered
            vector, detail = item
            prior_ring = cpu.ring
            cpu.deliver_irq(vector, detail)
            delivered += 1
            observers = observe.observers
            if observers is not None:
                observe.publish(observers, observe.Event(
                    "hv", "virq_deliver", to=vm.name,
                    detail=f"vector {vector:#x}"))
            handler = None
            if cpu.interrupts.idt is not None:
                handler = cpu.interrupts.idt.handler(vector)
            if handler is not None:
                handler(vector)
            # IRET back to the interrupted privilege level.
            if cpu.ring != prior_ring:
                cpu.iret_to_ring(prior_ring, "irq return")
