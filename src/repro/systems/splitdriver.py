"""Xen-style split drivers and emulated devices — the Table-1
"Decoupling" I/O rows (Xen emulated devices 3X, ClickOS 2X), built out
as a runnable system.

A guest VM's I/O is served by a **driver domain** (dom0) that owns the
physical device:

* **emulated mode** (Xen emulated devices, 3X): each I/O kick exits to
  the hypervisor, which schedules dom0; the request reaches a
  *user-space device model* (QEMU) before hitting the device —
  ``K(vm) -> hyp -> K(dom0) -> U(qemu) -> K(dom0) -> hyp -> K(vm)``.
* **paravirt mode** (ClickOS's netfront/netback, 2X): the frontend's
  event channel still bounces through the hypervisor but stays in
  dom0's kernel — ``K(vm) -> hyp -> K(dom0) -> hyp -> K(vm)``.
* **crossover mode**: the frontend invokes the backend's transmit
  routine directly with a kernel-to-kernel cross-VM call (one hop each
  way; plain VMFUNC suffices for K->K per Table 3).

The device is a real sink: transmitted frames land on a host endpoint,
so tests verify payload integrity along every path.
"""

from __future__ import annotations

from typing import Optional

from repro.core.crossvm import CrossVMSyscallMechanism
from repro.errors import ConfigurationError, SimulationError
from repro.guestos.kernel import Kernel
from repro.guestos.net import HostEndpoint
from repro.hw.cpu import Mode
from repro.hw.vmx import ExitReason
from repro.hypervisor.injection import VECTOR_NET_RX
from repro.hypervisor.paths import (CALLEE, CALLER, CHARGE, EXIT, INJECT,
                                    LAUNCH, RUN, SCHEDULE, SYSRET,
                                    TRAP_IF_USER, WAKE, Step, TrapPath)
from repro.testbed import enter_vm_kernel

#: Device-model work per request in the QEMU process (emulated mode).
QEMU_EMULATION_CYCLES = 5200

#: Backend driver work per transmitted frame.
BACKEND_TX_CYCLES = 900

MODES = ("emulated", "paravirt", "crossover")

#: The bounced modes' event-channel round trips (Table 1's Xen emulated
#: devices and ClickOS rows); an emulated request first detours through
#: the user-space device model, whose work is the run row.
_KICK = (Step(EXIT, ExitReason.IO, "event channel kick"),
         Step(SCHEDULE, CALLEE, "run dom0"),
         Step(LAUNCH, CALLEE, "deliver to netback"),
         Step(TRAP_IF_USER, None, "netback handles event"))
_COMPLETE = (Step(EXIT, ExitReason.IO, "tx complete"),
             Step(INJECT, CALLER, "tx irq", vector=VECTOR_NET_RX),
             Step(LAUNCH, CALLER, "resume frontend"))
TRAP_PATHS = {
    "emulated": TrapPath(
        enter=_KICK + (Step(WAKE, None, "wake qemu"),
                       Step(SYSRET, None, "qemu emulates"),
                       Step(RUN),
                       Step(CHARGE, "user_wrapper"),
                       Step(TRAP_IF_USER, None, "qemu completes"),
                       Step(CHARGE, "syscall_dispatch")),
        leave=_COMPLETE),
    "paravirt": TrapPath(enter=_KICK, leave=_COMPLETE),
}


class SplitDriver:
    """A frontend in ``guest`` whose device lives in ``driver_domain``."""

    name = "SplitDriver"

    def __init__(self, machine, guest_kernel: Kernel,
                 dom0_kernel: Kernel, *, mode: str,
                 device_port: int = 4400) -> None:
        if mode not in MODES:
            raise ConfigurationError(f"unknown split-driver mode {mode!r}")
        self.machine = machine
        self.guest_kernel = guest_kernel
        self.dom0_kernel = dom0_kernel
        self.mode = mode
        self.device = HostEndpoint(machine.network, device_port,
                                   "physical-nic")
        self.qemu: Optional[object] = None
        self.crossvm: Optional[CrossVMSyscallMechanism] = None
        self.frames_tx = 0
        self._ready = False

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Create the dom0-side plumbing for the chosen mode."""
        if self._ready:
            return
        machine = self.machine
        # dom0's backend owns a socket to the physical device.
        enter_vm_kernel(machine, self.dom0_kernel.vm)
        self.backend_proc = self.dom0_kernel.spawn("netback")
        self.dom0_kernel.enter_user(self.backend_proc)
        self.backend_fd = self.backend_proc.syscall("socket")
        self.backend_proc.syscall("connect", self.backend_fd, "host",
                                  self.device.port)
        self.dom0_kernel.to_kernel("backend ready")
        if self.mode == "emulated":
            self.qemu = self.dom0_kernel.spawn("qemu")
        if self.mode == "crossover":
            self.crossvm = CrossVMSyscallMechanism(machine)
            self.crossvm.setup_pair(self.guest_kernel.vm,
                                    self.dom0_kernel.vm)
        enter_vm_kernel(machine, self.guest_kernel.vm)
        self._ready = True

    # ------------------------------------------------------------------
    # frontend transmit
    # ------------------------------------------------------------------

    def transmit(self, frame: bytes) -> int:
        """Send one frame from the guest's frontend driver."""
        if not self._ready:
            raise SimulationError("setup() must run first")
        cpu = self.machine.cpu
        if cpu.mode is not Mode.NON_ROOT or \
                cpu.vm_name != self.guest_kernel.vm.name or cpu.ring != 0:
            raise SimulationError(
                "transmit must be issued from the guest kernel "
                f"(frontend); CPU is at {cpu.world_label}")
        if self.mode == "crossover":
            return self._crossover_tx(frame)
        return self.machine.hypervisor.redirect(
            cpu, self.guest_kernel.vm, self.dom0_kernel.vm,
            lambda: self._backend_tx(frame), TRAP_PATHS[self.mode],
            executor=self.qemu,
            run=lambda: cpu.work(QEMU_EMULATION_CYCLES, 1800, kind="qemu"))

    def _backend_tx(self, frame: bytes) -> int:
        """The dom0 backend's transmit routine (runs in dom0 context)."""
        self.machine.cpu.work(BACKEND_TX_CYCLES, 300, kind="backend_tx")
        self.dom0_kernel.execute_syscall(self.backend_proc, "send",
                                         self.backend_fd, frame)
        self.frames_tx += 1
        return len(frame)

    def _crossover_tx(self, frame: bytes) -> int:
        """Frontend calls the backend's routine directly, cross-VM."""
        assert self.crossvm is not None
        return self.crossvm.call_function(
            self.guest_kernel.vm, self.dom0_kernel.vm,
            self._backend_tx, frame)
