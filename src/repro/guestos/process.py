"""Guest processes."""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional

from repro.errors import SimulationError
from repro.guestos.fd import FDTable
from repro.hw.paging import PageTable, fresh_root

#: Conventional user-space layout.
USER_TEXT_GVA = 0x0040_0000
USER_STACK_GVA = 0x7FFF_F000


class Process:
    """One guest process (PCB + address space + fd table).

    The address space and the fd table are built the first time
    anything reads :attr:`page_table` / :attr:`fds`.  A process that
    never runs (the Table-5 inspected VM's 1,670 daemons exist only as
    ``/proc`` entries) costs no page table, no frames and no EPT
    entries.  Its CR3 root is still taken here, at spawn, so roots
    follow spawn order whether or not the table is ever built.
    """

    def __init__(self, kernel, pid: int, name: str, *,
                 parent: Optional["Process"] = None, uid: int = 0) -> None:
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.parent = parent
        self.children: List["Process"] = []
        self.uid = uid
        self.state = "ready"          # ready | running | blocked | zombie
        self.exit_code: Optional[int] = None
        self._root = fresh_root()
        self.cwd = "/"
        self.start_cycles = kernel.cpu.perf.cycles
        #: Worlds this process registered (WIDs), for cleanup.
        self.wids: List[int] = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Process {self.pid} {self.name!r} ({self.state})>"

    @cached_property
    def page_table(self) -> PageTable:
        """The address space, built on first use.

        Clones the kernel master's mappings as they are now (kernel text
        and, after a cross-VM ``setup_pair``, the cross-ring code page),
        then maps private text and stack pages.  Kernel mappings added
        to the master later are not pushed here; whoever adds one maps
        it into the tables already built (:meth:`built_page_table`).
        """
        kernel = self.kernel
        vm = kernel.vm
        table = PageTable(f"{vm.name}:pid{self.pid}", root=self._root)
        table.clone_mappings(kernel.master_page_table)
        table.map(USER_TEXT_GVA, vm.map_new_page(f"pid{self.pid}-text"),
                  user=True, executable=True, writable=False)
        table.map(USER_STACK_GVA, vm.map_new_page(f"pid{self.pid}-stack"),
                  user=True)
        return table

    @cached_property
    def fds(self) -> FDTable:
        """The fd table, built on first use."""
        return FDTable()

    def built_page_table(self) -> Optional[PageTable]:
        """The address space if it has been built, else ``None``
        (reading :attr:`page_table` would build it)."""
        return self.__dict__.get("page_table")

    def close_files(self) -> None:
        """Close every open descriptor; a table never built has none."""
        fds = self.__dict__.get("fds")
        if fds is not None:
            fds.close_all()

    def release(self) -> None:
        """Drop the references to the kernel and the process tree (a
        closing kernel calls this; the process is not used again)."""
        self.kernel = None
        self.parent = None
        self.children.clear()

    @property
    def alive(self) -> bool:
        """True until the process exits."""
        return self.state != "zombie"

    def syscall(self, name: str, *args, **kwargs):
        """Issue a system call from this process's user context.

        Performs the full user->kernel->user round trip on the CPU:
        libc wrapper, SYSCALL trap, dispatcher, handler, SYSRET.  The
        process must be the one currently running on the CPU.
        """
        kernel = self.kernel
        cpu = kernel.cpu
        if kernel.current is not self:
            raise SimulationError(
                f"{self!r} issued a syscall but {kernel.current!r} is "
                "the running process")
        cpu.charge("user_wrapper")
        cpu.syscall_trap(name)
        cpu.charge("syscall_dispatch")
        try:
            return kernel.dispatch(self, name, *args, **kwargs)
        finally:
            cpu.sysret(name)

    def compute(self, cycles: int, instructions: Optional[int] = None
                ) -> None:
        """Charge user-level computation (application work between
        syscalls)."""
        if instructions is None:
            instructions = max(1, cycles // 2)
        self.kernel.cpu.work(cycles, instructions, kind="user_compute")
