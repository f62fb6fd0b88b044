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

from repro.hw.vmx import ExitReason
from repro.hypervisor.paths import (CALLEE, CALLER, COPY, EXIT, INJECT,
                                    LAUNCH, SLEEP, SYSRET, TRAP_IF_USER,
                                    WAKE, Step, TrapPath)
from repro.systems.base import CrossWorldSystem


#: The baseline inject-into-dummy path (Figure 2, case 4), with its
#: profiler path-step labels.
TRAP_PATH = TrapPath(
    enter=(Step(EXIT, ExitReason.VMCALL, "shadowcontext redirect",
                "vmcall-entry"),
           Step(COPY),
           Step(INJECT, CALLEE, "to dummy"),
           Step(LAUNCH, CALLEE, "run dummy process", "enter-untrusted"),
           Step(TRAP_IF_USER, None, "dummy dispatch", "dummy-dispatch"),
           Step(WAKE, None, "wake dummy"),
           Step(SYSRET, None, "dummy user", "dummy-user")),
    leave=(Step(SLEEP),          # the dummy sleeps again
           Step(EXIT, ExitReason.VMCALL, "shadowcontext done",
                "vmcall-done"),
           Step(COPY),
           Step(LAUNCH, CALLER, "resume trusted VM", "resume-trusted")))


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
        return self._trap_redirect(TRAP_PATH, self.dummy, name, args, kwargs)
