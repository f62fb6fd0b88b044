"""The guest kernel.

Ties together processes, the scheduler, the VFS and the syscall table
for one VM, and exposes the hooks the paper's systems need:

* ``redirector`` — a pluggable syscall interceptor (Proxos' dispatcher,
  ShadowContext's introspection interface, ...);
* ``enter_user`` / ``yield_to`` — CPU context management;
* ``execute_syscall`` — running a syscall on behalf of a remote caller
  while already in this kernel's context (the callee side of cross-VM
  syscalls).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import GuestOSError, SimulationError
from repro.guestos.fs.devfs import DevFS
from repro.guestos.fs.inode import Errno, InodeType
from repro.guestos.fs.procfs import ProcFS
from repro.guestos.fs.ramfs import RamFS
from repro.guestos.fs.vfs import VFS
from repro.guestos.net import NetStack
from repro.guestos.process import Process
from repro.guestos.scheduler import Scheduler
from repro.guestos.syscalls import SyscallTable
from repro.hw.costs import CLOCK_HZ
from repro.hw.cpu import CPU, Mode, Ring
from repro.hw.idt import IDT
from repro.hw.paging import PageTable

#: Where the kernel text lives in every address space (supervisor).
KERNEL_TEXT_GVA = 0xC000_0000

#: Base uptime at boot, so /proc/uptime looks like a warm machine.
BOOT_UPTIME_SECONDS = 3600.0

#: The boot image's /usr/share/dict/words, shared by every kernel's
#: inode until that inode's first write (file data is copy-on-write).
_DEFAULT_WORDS = b"\n".join(
    f"word{i:05d}".encode() for i in range(2000)) + b"\n"


class SyscallRedirector:
    """Interface for syscall interception (subclassed by the systems)."""

    def should_redirect(self, proc: Process, name: str, args: tuple) -> bool:
        """Decide whether this syscall leaves the VM."""
        raise NotImplementedError

    def redirect(self, proc: Process, name: str, args: tuple,
                 kwargs: dict):
        """Forward the syscall to another world and return its result."""
        raise NotImplementedError


class Kernel:
    """One guest VM's operating system.

    ``cpu`` selects which core the VM's vCPU is pinned to (the paper's
    testbed pins one vCPU per VM); defaults to the boot CPU.
    """

    def __init__(self, machine, vm, cpu: Optional[CPU] = None) -> None:
        self.machine = machine
        self.vm = vm
        self.cpu: CPU = cpu if cpu is not None else machine.cpu
        self.master_page_table = PageTable(f"{vm.name}:kernel")
        self._kernel_text_gpa = vm.map_new_page("kernel-text")
        self.master_page_table.map(KERNEL_TEXT_GVA, self._kernel_text_gpa,
                                   user=False, executable=True)
        self.idt = IDT(f"{vm.name}-idt")

        self.processes: Dict[int, Process] = {}
        self.last_pid = 0
        self.current: Optional[Process] = None
        self.scheduler = Scheduler(self)
        self.redirector: Optional[SyscallRedirector] = None

        self.rootfs = RamFS()
        self.devfs = DevFS()
        self.procfs = ProcFS(self)
        self.vfs = VFS(self.rootfs, self.cpu)
        self.vfs.mount("/dev", self.devfs)
        self.vfs.mount("/proc", self.procfs)
        self.syscalls = SyscallTable(self)
        self.net = NetStack(self)

        # The VM enters for the first time on the kernel's own page
        # table with the kernel IDT installed (post-boot state).
        vm.vmcs.guest.page_table = self.master_page_table
        vm.vmcs.guest.idt = self.idt

        self._boot_cycles = self.cpu.perf.cycles
        self._populate_fs()
        self.init = self.spawn("init")

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def uptime_seconds(self) -> float:
        """Simulated uptime (warm base + elapsed cycles)."""
        elapsed = (self.cpu.perf.cycles - self._boot_cycles) / CLOCK_HZ
        return BOOT_UPTIME_SECONDS + elapsed

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def spawn(self, name: str, *, parent: Optional[Process] = None,
              uid: int = 0) -> Process:
        """Create a process, ready to run.

        Maps nothing and allocates no frame: the process takes its pid
        and CR3 root now, and its address space and fd table are built
        the first time anything reads them (:attr:`Process.page_table`,
        :attr:`Process.fds`).  Every process goes through this one
        path, whether it ever runs or only shows up in ``/proc``.
        """
        self.last_pid += 1
        proc = Process(self, self.last_pid, name, parent=parent, uid=uid)
        self.processes[proc.pid] = proc
        self.scheduler.enqueue(proc)
        if parent is not None:
            parent.children.append(proc)
        return proc

    def reap(self, proc: Process, code: int) -> None:
        """Terminate a process (exit or fatal signal)."""
        proc.state = "zombie"
        proc.exit_code = code
        proc.close_files()
        self.scheduler.dequeue(proc)
        if proc.parent is None or not proc.parent.alive:
            self.processes.pop(proc.pid, None)
        if self.current is proc:
            self.current = None

    # ------------------------------------------------------------------
    # CPU context management
    # ------------------------------------------------------------------

    def _require_on_cpu(self) -> None:
        if self.cpu.mode is not Mode.NON_ROOT or self.cpu.vm_name != self.vm.name:
            raise SimulationError(
                f"CPU is in {self.cpu.world_label}, not in VM {self.vm.name}")

    def enter_user(self, proc: Process) -> None:
        """From this VM's kernel, start running ``proc`` in ring 3."""
        self._require_on_cpu()
        self.cpu.require_ring(int(Ring.KERNEL), "enter_user")
        if self.cpu.interrupts.idt is None:
            self.cpu.install_idt(self.idt)
        self.cpu.write_cr3(proc.page_table)
        if self.current is not None and self.current.alive:
            self.current.state = "ready"
        proc.state = "running"
        self.current = proc
        self.cpu.sysret(f"enter {proc.name}")

    def to_kernel(self, detail: str = "") -> None:
        """Trap from the current user process back into the kernel."""
        self._require_on_cpu()
        self.cpu.syscall_trap(detail or "enter kernel")

    def yield_to(self, proc: Process) -> None:
        """Blocking-style rendezvous: switch to another process.

        Models the context-switch path a blocking syscall takes (trap,
        switch, return to the other process's user context) without the
        full dispatcher cost — matching lat_ctx-style behaviour.
        """
        self._require_on_cpu()
        if self.current is proc:
            return
        started_in_user = self.cpu.ring == int(Ring.USER)
        if started_in_user:
            self.cpu.syscall_trap("block")
        self.scheduler.switch_to(proc)
        if started_in_user:
            self.cpu.sysret(f"resume {proc.name}")

    # ------------------------------------------------------------------
    # syscall dispatch
    # ------------------------------------------------------------------

    def dispatch(self, proc: Process, name: str, *args, **kwargs):
        """Kernel-side syscall dispatch (redirector hook first)."""
        if self.redirector is not None and self.redirector.should_redirect(
                proc, name, args):
            return self.redirector.redirect(proc, name, args, kwargs)
        return self.syscalls.invoke(proc, name, *args, **kwargs)

    def execute_syscall(self, proc: Process, name: str, *args, **kwargs):
        """Execute a syscall while already inside this kernel (CPL 0).

        Used by the callee side of cross-VM mechanisms: the remote
        syscall executes here on behalf of ``proc`` (a stub / dummy /
        helper process), charging dispatch + handler but no user-side
        trap.
        """
        self._require_on_cpu()
        self.cpu.require_ring(int(Ring.KERNEL), "execute_syscall")
        self.cpu.charge("syscall_dispatch")
        return self.syscalls.invoke(proc, name, *args, **kwargs)

    def close(self) -> None:
        """Break this kernel's cycles (see ``Machine.close``): its
        processes' and components' back-references, the procfs node
        cache, the syscall handlers and the redirector."""
        for proc in self.processes.values():
            proc.release()
        self.processes.clear()
        self.scheduler.kernel = self.net.kernel = None
        self.procfs.close()
        self.syscalls.close()
        self.redirector = None

    def install_redirector(self, redirector: Optional[SyscallRedirector]
                           ) -> None:
        """Install (or clear, with None) the syscall interceptor."""
        self.redirector = redirector

    # ------------------------------------------------------------------
    # user memory copies (charged, size-based)
    # ------------------------------------------------------------------

    def copy_to_user(self, nbytes: int) -> None:
        """Charge a kernel->user copy of ``nbytes``."""
        self.cpu.perf.charge("uio_copy", self.machine.cost_model.copy(nbytes))

    def copy_from_user(self, nbytes: int) -> None:
        """Charge a user->kernel copy of ``nbytes``."""
        self.cpu.perf.charge("uio_copy", self.machine.cost_model.copy(nbytes))

    # ------------------------------------------------------------------
    # boot-time filesystem population
    # ------------------------------------------------------------------

    def _populate_fs(self) -> None:
        root = self.rootfs.root()
        for name in ("tmp", "etc", "var", "home", "bin", "usr"):
            self.rootfs.create(root, name, InodeType.DIR, mode=0o755)
        etc = self.rootfs.lookup(root, "etc")
        passwd = self.rootfs.create(etc, "passwd", InodeType.FILE)
        passwd.data = (b"root:x:0:0:root:/root:/bin/bash\n"
                       b"alice:x:1000:1000::/home/alice:/bin/bash\n"
                       b"bob:x:1001:1001::/home/bob:/bin/bash\n")
        hostname = self.rootfs.create(etc, "hostname", InodeType.FILE)
        hostname.data = f"{self.vm.name}\n".encode()

        var = self.rootfs.lookup(root, "var")
        run = self.rootfs.create(var, "run", InodeType.DIR, mode=0o755)
        self.rootfs.create(var, "log", InodeType.DIR, mode=0o755)
        utmp = self.rootfs.create(run, "utmp", InodeType.FILE)
        utmp.data = (b"alice pts/0 2015-06-13 09:00\n"
                     b"bob   pts/1 2015-06-13 09:30\n")

        tmp = self.rootfs.lookup(root, "tmp")
        f = self.rootfs.create(tmp, "f", InodeType.FILE)
        f.data = b"lmbench scratch file\n"

        usr = self.rootfs.lookup(root, "usr")
        share = self.rootfs.create(usr, "share", InodeType.DIR, mode=0o755)
        dictdir = self.rootfs.create(share, "dict", InodeType.DIR, mode=0o755)
        words = self.rootfs.create(dictdir, "words", InodeType.FILE)
        words.data = _DEFAULT_WORDS


def boot_kernel(machine, vm, cpu: Optional[CPU] = None) -> Kernel:
    """Attach a freshly booted kernel to ``vm`` and return it."""
    if vm.kernel is not None:
        raise SimulationError(f"VM {vm.name} already has a kernel")
    kernel = Kernel(machine, vm, cpu)
    vm.kernel = kernel
    return kernel
