"""ShadowContext (Wu et al., DSN 2014) — Section 6, case 4.

Virtual machine introspection by syscall redirection: introspection
syscalls issued in a trusted VM are executed by a stealthily created
*dummy process* inside the untrusted VM.

**Baseline** (8 ring crossings): the introspection interface in the
trusted VM's kernel raises a VM exit; KVM injects the redirected
syscall into the dummy process with a software interrupt; a second VM
exit signals completion; *all parameters and buffers are copied in and
out across VMs* by the hypervisor.

**Optimized**: reuses the VMFUNC cross-VM syscall design verbatim
(Section 6: "directly reuses the design and implementation of the
cross-VM system call"), with inter-VM shared memory instead of copies.
"""

from __future__ import annotations

from typing import Any

from repro.core import convention
from repro.errors import GuestOSError
from repro.hw.vmx import ExitReason
from repro.hypervisor.injection import VECTOR_SYSCALL_REDIRECT
from repro.systems.base import CrossWorldSystem


#: Profiler step labels for the baseline inject-into-dummy path
#: (Figure 2, case 4): ``(trace event kind, detail) -> canonical step``.
STACK_STEPS = {
    ("vmexit", "shadowcontext redirect"): "vmcall-entry",
    ("vmentry", "run dummy process"): "enter-untrusted",
    ("syscall_trap", "dummy dispatch"): "dummy-dispatch",
    ("sysret", "dummy user"): "dummy-user",
    ("vmexit", "shadowcontext done"): "vmcall-done",
    ("vmentry", "resume trusted VM"): "resume-trusted",
}


class ShadowContext(CrossWorldSystem):
    """ShadowContext: trusted VM = ``local_vm``, untrusted VM =
    ``remote_vm``."""

    name = "ShadowContext"

    def _setup_extra(self) -> None:
        """Create the dummy process inside the untrusted VM."""
        assert self.remote_executor is not None
        self.remote_executor.name = "shadowctx-dummy"
        self.dummy = self.remote_executor

    def _redirect(self, name: str, *args, **kwargs) -> Any:
        """One introspection syscall executed in the untrusted VM."""
        self._require_local_kernel()
        if self.optimized:
            return self._optimized_redirect(name, *args, **kwargs)
        return self._baseline_redirect(name, *args, **kwargs)

    # ------------------------------------------------------------------
    # baseline: VM exit -> inject software interrupt -> dummy executes
    # -> VM exit -> copy buffers back -> resume trusted VM
    # ------------------------------------------------------------------

    def _baseline_redirect(self, name: str, *args, **kwargs) -> Any:
        cpu = self.machine.cpu
        hypervisor = self.machine.hypervisor
        cm = self.machine.cost_model

        # The introspection interface raises a VM exit to KVM; all
        # parameters are copied out of the trusted VM.
        request = convention.encode((name, args, kwargs))
        cpu.vmexit(ExitReason.VMCALL, "shadowcontext redirect")
        cpu.charge("vmexit_handle")
        cpu.perf.charge("copy", cm.copy(len(request)))

        # KVM injects the redirected syscall into the dummy process with
        # a software interrupt.
        hypervisor.injector.inject(cpu, self.remote_vm,
                                   VECTOR_SYSCALL_REDIRECT, "to dummy")
        hypervisor.launch(cpu, self.remote_vm, "run dummy process")
        if cpu.ring != 0:
            cpu.syscall_trap("dummy dispatch")
        remote = self.remote_kernel
        remote.scheduler.switch_to(self.dummy, "wake dummy")
        cpu.sysret("dummy user")
        try:
            result: Any = self.dummy.syscall(name, *args, **kwargs)
        except GuestOSError as err:
            result = err

        # Completion raises another VM exit; the returned buffer is
        # copied across VMs; the trusted VM resumes.
        reply = convention.encode(result)
        self.remote_kernel.current = None   # the dummy sleeps again
        cpu.vmexit(ExitReason.VMCALL, "shadowcontext done")
        cpu.charge("vmexit_handle")
        cpu.perf.charge("copy", cm.copy(len(reply)))
        hypervisor.launch(cpu, self.local_vm, "resume trusted VM")
        if isinstance(result, GuestOSError):
            raise result
        return result
