"""HyperShell (Fu, Zeng, Lin — USENIX ATC 2014) — Section 6, case 2.

A management shell executes utilities whose syscalls are *reverse
redirected* into a guest VM for execution.

**Baseline** (the published design, 8 world calls): the shell runs in
host userland.  Its redirected syscall traps into the host kernel
(KVM); a helper process inside the guest "keeps executing INT3
instructions trapping to KVM" so the redirected call can be handled
timely: KVM hands the syscall to the helper at its next INT3 exit, the
helper executes it in-guest, traps back with INT3, and KVM resumes the
host shell.

**Optimized**: following the paper's security remedy, the shell lives
in a *management guest VM* (running it in the host would execute guest
code with host privilege) and jumps into the target VM with the VMFUNC
cross-VM syscall mechanism — 4 world calls instead of 8.
"""

from __future__ import annotations

from typing import Any

from repro import observe
from repro.errors import SimulationError
from repro.hw.cpu import Mode, Ring
from repro.hw.vmx import ExitReason
from repro.hypervisor.paths import (CALLEE, CALLER, COPY, EXIT, LAUNCH,
                                    SYSRET, TRAP_IF_USER, WAKE, Step,
                                    TrapPath)
from repro.systems.base import CrossWorldSystem


#: The baseline INT3-helper path (Figure 2, case 2), with its profiler
#: path-step labels: the helper spins on INT3, so KVM hands it the
#: syscall at its next breakpoint exit.  The first exit and the last
#: entry only run when the call starts in a management-VM kernel.
TRAP_PATH = TrapPath(
    enter=(Step(EXIT, ExitReason.VMCALL, "hypershell redirect",
                "vmcall-entry"),
           Step(COPY),
           Step(LAUNCH, CALLEE, "run helper", "enter-guest"),
           Step(TRAP_IF_USER, None, "helper resumes", "helper-resume-trap"),
           Step(WAKE, None, "schedule helper"),
           Step(SYSRET, None, "helper user", "helper-user"),
           Step(EXIT, ExitReason.BREAKPOINT, "helper INT3", "int3-exit"),
           Step(LAUNCH, CALLEE, "inject syscall into helper",
                "inject-syscall")),
    leave=(Step(EXIT, ExitReason.BREAKPOINT, "helper done", "int3-done"),
           Step(COPY),
           Step(LAUNCH, CALLER, "resume shell VM", "resume-shell")))


class HyperShell(CrossWorldSystem):
    """HyperShell: shell in ``local_vm`` (optimized) or host userland
    (baseline); the managed guest is ``remote_vm``."""

    name = "HyperShell"

    def _setup_extra(self) -> None:
        """Create the in-guest helper process and (baseline) the host
        shell process."""
        assert self.remote_executor is not None
        self.remote_executor.name = "hypershell-helper"
        self.helper = self.remote_executor
        if not self.optimized:
            self.shell = self.machine.hypervisor.create_host_process(
                f"hypershell-shell-{self.local_vm.name}")

    # ------------------------------------------------------------------
    # the measured operation
    # ------------------------------------------------------------------

    def _redirect(self, name: str, *args, **kwargs) -> Any:
        """One reverse-redirected syscall, from the management VM's
        kernel or (baseline only) the host kernel."""
        if self.optimized:
            self._require_local_kernel()
            return self._optimized_redirect(name, *args, **kwargs)
        cpu = self.machine.cpu
        if cpu.mode is not Mode.ROOT or cpu.ring != 0:
            self._require_local_kernel()
        return self._trap_redirect(TRAP_PATH, self.helper, name, args, kwargs)

    # ------------------------------------------------------------------
    # baseline: host shell -> KVM -> INT3 helper -> in-guest execution
    # ------------------------------------------------------------------

    def shell_syscall(self, name: str, *args, **kwargs) -> Any:
        """Entry point for the baseline host shell: issue a syscall from
        host userland and have it reverse-executed in the guest."""
        if self.optimized:
            raise SimulationError(
                "shell_syscall is the baseline path; the optimized "
                "HyperShell runs its shell inside a management VM")
        cpu = self.machine.cpu
        if cpu.mode is not Mode.ROOT or cpu.ring != int(Ring.USER):
            raise SimulationError(
                "the baseline shell runs in host userland; CPU is at "
                f"{cpu.world_label}")
        observers = observe.observers
        if observers is None:
            return self._shell_call(cpu, name, *args, **kwargs)
        return self._bracketed(
            observers, name,
            lambda: self._shell_call(cpu, name, *args, **kwargs))

    def _shell_call(self, cpu, name: str, *args, **kwargs) -> Any:
        # Shell's libc stub + trap into the host kernel (KVM).
        cpu.charge("user_wrapper")
        cpu.syscall_trap(name)
        cpu.charge("syscall_dispatch")
        try:
            return self._trap_redirect(TRAP_PATH, self.helper, name, args,
                                       kwargs)
        finally:
            cpu.sysret(name)
