"""VT-x structures: the VMCS and exit reasons.

A :class:`VMCS` holds the guest-state and host-state areas the hardware
swaps on VM entry/exit.  The CPU's :meth:`~repro.hw.cpu.CPU.vmexit` /
:meth:`~repro.hw.cpu.CPU.vmentry` primitives call the save/load hooks
here; the hypervisor owns one VMCS per vCPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.cpu import Mode
from repro.hw.ept import EPT, EPTPList
from repro.hw.idt import IDT
from repro.hw.paging import PageTable


class ExitReason:
    """Symbolic VM-exit reasons used by the model."""

    VMCALL = "vmcall"
    EPT_VIOLATION = "ept-violation"
    IO = "io"
    EXTERNAL_INTERRUPT = "external-interrupt"
    BREAKPOINT = "breakpoint"            # INT3 (#BP) — HyperShell's helper
    EXCEPTION = "exception"
    VMFUNC_FAULT = "vmfunc-fault"
    WORLD_TABLE_MISS = "world-table-miss"
    PREEMPTION_TIMER = "preemption-timer"
    HLT = "hlt"


@dataclass
class _StateArea:
    """Saved architectural state for one side of a VM transition."""

    ring: int = 0
    page_table: Optional[PageTable] = None
    ept: Optional[EPT] = None
    eptp_list: Optional[EPTPList] = None
    idt: Optional[IDT] = None
    interrupts_enabled: bool = True
    vm_name: str = "host"


class VMCS:
    """One virtual-machine control structure (per vCPU)."""

    def __init__(self, vm_name: str, ept: EPT,
                 eptp_list: Optional[EPTPList] = None) -> None:
        self.vm_name = vm_name
        self.guest = _StateArea(ring=0, ept=ept, eptp_list=eptp_list,
                                vm_name=vm_name)
        self.host = _StateArea(ring=0, vm_name="host")
        self.exit_reason: Optional[str] = None
        self.exit_qualification: Optional[object] = None
        self.launched = False

    # -- hooks used by CPU.vmexit / CPU.vmentry -------------------------

    def save_guest(self, cpu) -> None:
        """Capture the CPU's guest context on a VM exit."""
        self.guest.ring = cpu.ring
        self.guest.page_table = cpu.page_table
        self.guest.ept = cpu.ept
        self.guest.eptp_list = cpu.eptp_list
        self.guest.idt = cpu.interrupts.idt
        self.guest.interrupts_enabled = cpu.interrupts.interrupts_enabled
        self.guest.vm_name = cpu.vm_name

    def load_guest(self, cpu) -> None:
        """Restore the guest context into the CPU on VM entry."""
        cpu.mode = Mode.NON_ROOT
        cpu.ring = self.guest.ring
        cpu.page_table = self.guest.page_table
        cpu.ept = self.guest.ept
        cpu.eptp_list = self.guest.eptp_list
        cpu.interrupts.idt = self.guest.idt
        cpu.interrupts.interrupts_enabled = self.guest.interrupts_enabled
        cpu.vm_name = self.guest.vm_name
        self.launched = True

    def save_host(self, cpu) -> None:
        """Capture the host context before entering the guest."""
        self.host.ring = cpu.ring
        self.host.page_table = cpu.page_table
        self.host.idt = cpu.interrupts.idt
        self.host.interrupts_enabled = cpu.interrupts.interrupts_enabled
        self.host.vm_name = cpu.vm_name

    def load_host(self, cpu) -> None:
        """Restore the host context on a VM exit."""
        cpu.mode = Mode.ROOT
        cpu.ring = self.host.ring
        cpu.page_table = self.host.page_table
        cpu.ept = None
        cpu.eptp_list = None
        cpu.interrupts.idt = self.host.idt
        cpu.interrupts.interrupts_enabled = self.host.interrupts_enabled
        cpu.vm_name = self.host.vm_name
