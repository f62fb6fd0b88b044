"""Shared scaffolding for the case-study systems."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Set

from repro import observe
from repro.core import convention
from repro.core.crossvm import CrossVMSyscallMechanism
from repro.errors import ConfigurationError, SimulationError
from repro.guestos.kernel import Kernel, SyscallRedirector
from repro.guestos.process import Process
from repro.hw.cpu import Mode
from repro.hypervisor.paths import TrapPath
from repro.hypervisor.vm import VirtualMachine
from repro.machine import Machine
from repro.observe import Event

#: Syscalls that must never leave the local VM even when a system
#: redirects "everything" (process control stays local, as in the
#: original systems).
LOCAL_ONLY_SYSCALLS = frozenset({
    "fork", "execve", "exit", "wait", "kill", "sched_yield", "brk",
    "mmap", "munmap",
})


class CrossWorldSystem:
    """Base class: an app VM whose syscalls are served by a peer world.

    Subclasses implement :meth:`redirect_syscall`, the one operation the
    microbenchmarks measure, and :meth:`setup` to build their plumbing.
    """

    #: Human-readable system name ("Proxos", ...).
    name: str = "abstract"

    def __init__(self, machine: Machine, local_vm: VirtualMachine,
                 remote_vm: VirtualMachine, *, optimized: bool) -> None:
        if local_vm.kernel is None or remote_vm.kernel is None:
            raise ConfigurationError("both VMs need booted kernels")
        self.machine = machine
        self.local_vm = local_vm
        self.remote_vm = remote_vm
        self.local_kernel: Kernel = local_vm.kernel      # type: ignore
        self.remote_kernel: Kernel = remote_vm.kernel    # type: ignore
        self.optimized = optimized
        self.remote_executor: Optional[Process] = None
        self.crossvm: Optional[CrossVMSyscallMechanism] = None
        self._ready = False

    @property
    def variant(self) -> str:
        """"optimized" or "original"."""
        return "optimized" if self.optimized else "original"

    def setup(self) -> None:
        """Build the system's plumbing (one-time, idempotent)."""
        if self._ready:
            return
        self.remote_executor = self.remote_kernel.spawn(
            f"{self.name.lower()}-executor")
        if self.optimized:
            self.crossvm = CrossVMSyscallMechanism(self.machine)
            self.crossvm.setup_pair(self.local_vm, self.remote_vm)
        self._setup_extra()
        self._ready = True

    def _setup_extra(self) -> None:
        """Subclass hook for system-specific plumbing."""
        return None

    def redirect_syscall(self, name: str, *args, **kwargs) -> Any:
        """Execute one syscall in the remote world.

        Must be invoked from the local VM's kernel at CPL 0 (i.e. from
        the syscall dispatcher).  With no observer installed the cost
        over calling :meth:`_redirect` directly is one module attribute
        read — this is the measured hot path.
        """
        observers = observe.observers
        if observers is None:
            return self._redirect(name, *args, **kwargs)
        return self._bracketed(
            observers, name, lambda: self._redirect(name, *args, **kwargs))

    def _bracketed(self, observers, op: str, run: Callable[[], Any]) -> Any:
        """``run()`` between ``redirect_begin``/``redirect_end`` records
        (telemetry spans the redirect, audit logs both ends)."""
        cpu = self.machine.cpu
        frm = f"{self.name}/{self.variant}"
        observe.publish(observers, Event(
            "sys", "redirect_begin", frm, detail=op, cycles=cpu.perf.cycles,
            ref=self))
        try:
            return run()
        finally:
            observe.publish(observers, Event(
                "sys", "redirect_end", frm, detail=op,
                cycles=cpu.perf.cycles, ref=self))

    def _redirect(self, name: str, *args, **kwargs) -> Any:
        """Subclass hook: the system's actual redirection path."""
        raise NotImplementedError

    # -- helpers shared by the variants ---------------------------------

    def _trap_redirect(self, path: TrapPath, executor: Process, name: str,
                       args: tuple, kwargs: dict) -> Any:
        """A baseline: ``executor`` issues the syscall in the remote VM,
        reached over the hypervisor's walk of ``path``."""
        return self.machine.hypervisor.redirect(
            self.machine.cpu, self.local_vm, self.remote_vm,
            lambda: executor.syscall(name, *args, **kwargs), path,
            executor=executor,
            request=convention.encode((name, args, kwargs)))

    def _optimized_redirect(self, name: str, *args, **kwargs) -> Any:
        assert self.crossvm is not None and self.remote_executor is not None
        return self.crossvm.call(self.local_vm, self.remote_vm, name, *args,
                                 executor=self.remote_executor, **kwargs)

    def _require_local_kernel(self) -> None:
        cpu = self.machine.cpu
        if (cpu.mode is not Mode.NON_ROOT
                or cpu.vm_name != self.local_vm.name or cpu.ring != 0):
            raise SimulationError(
                f"{self.name} redirection must start in "
                f"{self.local_vm.name}'s kernel; CPU is at {cpu.world_label}")


class SystemRedirector(SyscallRedirector):
    """Kernel hook routing selected syscalls through a system.

    ``names=None`` redirects every syscall except process control
    (:data:`LOCAL_ONLY_SYSCALLS`); otherwise only the named ones leave
    the VM.
    """

    def __init__(self, system: CrossWorldSystem,
                 names: Optional[Iterable[str]] = None) -> None:
        self.system = system
        self.names: Optional[Set[str]] = (
            set(names) if names is not None else None)
        self.redirected_count = 0

    def should_redirect(self, proc: Process, name: str, args: tuple) -> bool:
        if name in LOCAL_ONLY_SYSCALLS:
            return False
        if self.names is None:
            return True
        return name in self.names

    def redirect(self, proc: Process, name: str, args: tuple, kwargs: dict):
        self.redirected_count += 1
        return self.system.redirect_syscall(name, *args, **kwargs)


def install_redirection(system: CrossWorldSystem,
                        names: Optional[Iterable[str]] = None
                        ) -> SystemRedirector:
    """Install a redirector for ``system`` on its local kernel."""
    redirector = SystemRedirector(system, names)
    system.local_kernel.install_redirector(redirector)
    return redirector
