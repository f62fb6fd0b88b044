"""Tahoma (Cox et al., IEEE S&P 2006) — Section 6, case 3.

A browser operating system: each web/browser instance runs in its own
VM, controlled by a manager ("browser kernel") through cross-VM RPC
(*browser-calls*).

**Baseline** (the published design): the browser-call is "XML-formatted
and carried over a TCP connection using a point-to-point virtual
network link" — per call, two XML marshal + two unmarshal steps and a
full guest-TCP/virtual-NIC round trip through the hypervisor.

**Optimized**: the browser-call rides the VMFUNC cross-VM call path
with shared-memory parameter passing (Section 6: only the
manager/instance communication is reimplemented).
"""

from __future__ import annotations

from typing import Any

from repro.core import convention
from repro.errors import GuestOSError
from repro.hw.vmx import ExitReason
from repro.hypervisor.paths import (CALLEE, CALLER, EXIT, LAUNCH, SCHEDULE,
                                    SLEEP, SYSRET, TRAP_IF_USER, WAKE, Step,
                                    TrapPath)
from repro.systems.base import CrossWorldSystem

#: Port the manager's browser-call service listens on.
MANAGER_PORT = 8080

#: The hypervisor half of the baseline XML-over-TCP path (Figure 2,
#: case 3), with its profiler path-step labels.
TRAP_PATH = TrapPath(
    enter=(Step(EXIT, ExitReason.HLT, "browser blocks on RPC", "rpc-block"),
           Step(SCHEDULE, CALLEE, "run manager", "schedule-manager"),
           Step(LAUNCH, CALLEE, "manager VM", "enter-manager"),
           Step(TRAP_IF_USER, None, "manager wakeup", "manager-wakeup"),
           Step(WAKE, None, "wake manager"),
           Step(SYSRET, None, "manager user", "manager-user")),
    leave=(Step(SLEEP),
           Step(EXIT, ExitReason.HLT, "manager idles", "manager-idle"),
           Step(SCHEDULE, CALLER, "resume browser", "schedule-browser"),
           Step(LAUNCH, CALLER, "browser VM", "resume-browser")))


class Tahoma(CrossWorldSystem):
    """Tahoma: browser instance in ``local_vm``, manager in
    ``remote_vm``.

    Each instance gets its own point-to-point link; pass a distinct
    ``port`` per instance when one manager serves several VMs.
    """

    name = "Tahoma"

    def __init__(self, machine, local_vm, remote_vm, *, optimized: bool,
                 port: int = MANAGER_PORT) -> None:
        super().__init__(machine, local_vm, remote_vm, optimized=optimized)
        self.port = port

    def _setup_extra(self) -> None:
        """Create the manager service and (baseline) the TCP link."""
        assert self.remote_executor is not None
        self.remote_executor.name = "tahoma-manager"
        self.manager = self.remote_executor
        if self.optimized:
            return

        from repro.testbed import enter_vm_kernel

        machine = self.machine
        # Manager side: listen on the virtual point-to-point link.
        enter_vm_kernel(machine, self.remote_vm)
        self.remote_kernel.enter_user(self.manager)
        listen_fd = self.manager.syscall("socket")
        self.manager.syscall("bind", listen_fd, self.port)
        self.manager.syscall("listen", listen_fd)

        # Browser side: a dedicated link process holds the connection.
        enter_vm_kernel(machine, self.local_vm)
        self.link = self.local_kernel.spawn("tahoma-link")
        self.local_kernel.enter_user(self.link)
        self.browser_fd = self.link.syscall("socket")
        self.link.syscall("connect", self.browser_fd,
                          self.remote_vm.name, self.port)

        # Manager accepts the connection.
        enter_vm_kernel(machine, self.remote_vm)
        self.remote_kernel.enter_user(self.manager)
        self.manager_fd = self.manager.syscall("accept", listen_fd)
        enter_vm_kernel(machine, self.local_vm)

    # ------------------------------------------------------------------
    # the measured operation (one browser-call round trip)
    # ------------------------------------------------------------------

    def _redirect(self, name: str, *args, **kwargs) -> Any:
        """One browser-call: the manager performs ``name`` on behalf of
        the browser instance."""
        self._require_local_kernel()
        if self.optimized:
            return self._optimized_redirect(name, *args, **kwargs)
        cpu = self.machine.cpu
        kernel = self.local_kernel

        # Baseline: XML-marshal the request and send it down the TCP
        # link; the manager VM serves it; read and unmarshal the reply.
        cpu.charge("xml_marshal")
        request = convention.encode((name, args, kwargs))
        kernel.execute_syscall(self.link, "send", self.browser_fd, request)
        self.machine.hypervisor.redirect(
            cpu, self.local_vm, self.remote_vm, self._serve, TRAP_PATH,
            executor=self.manager)
        wire = kernel.execute_syscall(self.link, "recv",
                                      self.browser_fd, 65536)
        cpu.charge("xml_marshal")
        value = convention.decode(wire)
        if isinstance(value, GuestOSError):
            raise value
        return value

    def _serve(self) -> None:
        """The manager: recv, unmarshal, execute, marshal, reply."""
        cpu = self.machine.cpu
        wire = self.manager.syscall("recv", self.manager_fd, 65536)
        cpu.charge("xml_marshal")   # XML decode costs like encode
        r_name, r_args, r_kwargs = convention.decode(wire)
        try:
            result: Any = self.manager.syscall(r_name, *r_args, **r_kwargs)
        except GuestOSError as err:
            result = err
        cpu.charge("xml_marshal")
        self.manager.syscall("send", self.manager_fd,
                             convention.encode(result))
