"""Proxos (Ta-Min et al., OSDI 2006) reimplementation — Section 6, case 1.

A trusted private application (linked against a library OS) runs in
VM1 and routes selected syscalls to an untrusted commodity OS in VM2.

**Baseline** (the published design, 6 world switches per call): each
redirected syscall traps to the VMM with a hypercall; the VMM marshals
the request, injects a virtual interrupt into the commodity OS, which
enqueues the call on a host-process descriptor and executes it when the
stub process is scheduled; completion comes back via another hypercall.

**Optimized**: the private app — running at ring 0 under its libOS, so
with *no ring crossing at all* — jumps to the commodity kernel directly
with the VMFUNC cross-VM syscall mechanism (Section 4.3).
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError
from repro.hw.cpu import Mode, Ring
from repro.hw.vmx import ExitReason
from repro.hypervisor.paths import (CALLEE, CALLER, CHARGE, COPY, EXIT,
                                    INJECT, LAUNCH, SCHEDULE, SLEEP, SYSRET,
                                    TRAP_IF_USER, WAKE, Step, TrapPath)
from repro.systems.base import CrossWorldSystem


#: The baseline hypercall path (Figure 2, case 1), with its profiler
#: path-step labels.
TRAP_PATH = TrapPath(
    enter=(Step(EXIT, ExitReason.VMCALL, "proxos redirect", "vmcall-entry"),
           Step(CHARGE, "hypercall_dispatch"),
           Step(COPY),                          # marshal the request
           Step(INJECT, CALLEE, "proxos syscall"),
           Step(SCHEDULE, CALLEE, "run commodity OS", "schedule-commodity"),
           Step(LAUNCH, CALLEE, "deliver to commodity OS",
                "inject-commodity"),
           Step(TRAP_IF_USER, None, "proxos enqueue", "enqueue-trap"),
           Step(WAKE, None, "wake proxos stub"),
           Step(SYSRET, None, "run stub", "wake-stub")),
    leave=(Step(SLEEP),          # the stub blocks for the next request
           Step(EXIT, ExitReason.VMCALL, "proxos done", "vmcall-done"),
           Step(COPY),
           Step(LAUNCH, CALLER, "resume private VM", "resume-private")))


class Proxos(CrossWorldSystem):
    """Proxos: private app in ``local_vm``, commodity OS in ``remote_vm``."""

    name = "Proxos"

    def _setup_extra(self) -> None:
        """Create the stub (host) process in the commodity OS."""
        assert self.remote_executor is not None
        self.remote_executor.name = "proxos-stub"
        self.stub = self.remote_executor

    # ------------------------------------------------------------------
    # the measured operation
    # ------------------------------------------------------------------

    def _redirect(self, name: str, *args, **kwargs) -> Any:
        """One redirected syscall (from the private VM's kernel/libOS)."""
        self._require_local_kernel()
        if self.optimized:
            return self._optimized_redirect(name, *args, **kwargs)
        return self._trap_redirect(TRAP_PATH, self.stub, name, args, kwargs)

    def libos_syscall(self, name: str, *args, **kwargs) -> Any:
        """The private app's entry point: a libOS *function call* (the
        app runs at ring 0, so no trap), then the redirection."""
        cpu = self.machine.cpu
        if cpu.mode is not Mode.NON_ROOT or cpu.vm_name != self.local_vm.name:
            raise SimulationError("private app is not running")
        cpu.require_ring(int(Ring.KERNEL), "libOS syscall")
        cpu.charge("user_wrapper")   # the libOS function-call stub
        return self.redirect_syscall(name, *args, **kwargs)
