"""Process filesystem (/proc) — synthetic view of kernel state.

The utility workloads (Table 5: pstree, w, uptime, ...) read /proc; the
content is generated from the live kernel object at read time, like
a real procfs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import GuestOSError
from repro.guestos.fs.inode import Errno, Inode, InodeType

_STATIC_FILES = ("uptime", "loadavg", "meminfo", "stat", "version")


class ProcFS:
    """Synthetic /proc backed by a :class:`~repro.guestos.kernel.Kernel`."""

    name = "procfs"

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self._root = Inode(InodeType.DIR, mode=0o555)
        self._cache: Dict[str, Inode] = {}

    def root(self) -> Inode:
        """The /proc directory inode."""
        return self._root

    # ------------------------------------------------------------------
    # content generators
    # ------------------------------------------------------------------

    def _gen_uptime(self) -> bytes:
        seconds = self.kernel.uptime_seconds()
        return f"{seconds:.2f} {seconds * 0.9:.2f}\n".encode()

    def _gen_loadavg(self) -> bytes:
        n = len(self.kernel.processes)
        running = min(1, n)
        return (f"{0.05 * n:.2f} {0.04 * n:.2f} {0.03 * n:.2f} "
                f"{running}/{n} {self.kernel.last_pid}\n").encode()

    def _gen_meminfo(self) -> bytes:
        total_kb = 2 * 1024 * 1024
        used_kb = 4 * len(self.kernel.processes)
        return (f"MemTotal: {total_kb} kB\n"
                f"MemFree: {total_kb - used_kb} kB\n"
                f"Buffers: 0 kB\nCached: 0 kB\n").encode()

    def _gen_stat(self) -> bytes:
        return (f"cpu  {self.kernel.cpu.perf.cycles // 1000} 0 0 0\n"
                f"processes {self.kernel.last_pid}\n").encode()

    def _gen_version(self) -> bytes:
        return (f"Linux version 3.16.1-repro ({self.kernel.vm.name}) "
                f"(crossover-sim)\n").encode()

    def _gen_pid_stat(self, pid: int):
        def generate() -> bytes:
            proc = self.kernel.processes.get(pid)
            if proc is None:
                return b""
            ppid = proc.parent.pid if proc.parent else 0
            return (f"{proc.pid} ({proc.name}) {proc.state[0].upper()} "
                    f"{ppid} {proc.pid} {proc.pid} 0\n").encode()
        return generate

    def _gen_pid_status(self, pid: int):
        def generate() -> bytes:
            proc = self.kernel.processes.get(pid)
            if proc is None:
                return b""
            ppid = proc.parent.pid if proc.parent else 0
            return (f"Name:\t{proc.name}\nState:\t{proc.state}\n"
                    f"Pid:\t{proc.pid}\nPPid:\t{ppid}\n"
                    f"Uid:\t{proc.uid}\t{proc.uid}\n").encode()
        return generate

    def _gen_pid_cmdline(self, pid: int):
        def generate() -> bytes:
            proc = self.kernel.processes.get(pid)
            return b"" if proc is None else proc.name.encode() + b"\x00"
        return generate

    def _gen_pid_comm(self, pid: int):
        def generate() -> bytes:
            proc = self.kernel.processes.get(pid)
            return b"" if proc is None else (proc.name + "\n").encode()
        return generate

    # ------------------------------------------------------------------
    # filesystem interface
    # ------------------------------------------------------------------

    def lookup(self, directory: Inode, name: str) -> Inode:
        """Resolve names under /proc, generating nodes lazily."""
        directory.require_dir()
        if directory is self._root:
            return self._lookup_root(name)
        # A /proc/<pid> directory: directory.target stores the pid.
        pid = int(directory.target)
        if self.kernel.processes.get(pid) is None:
            raise GuestOSError(Errno.ENOENT, f"process {pid} is gone")
        make_generator = _PID_FILES.get(name)
        if make_generator is None:
            raise GuestOSError(Errno.ENOENT, f"no /proc entry {name}")
        key = f"{pid}/{name}"
        node = self._cache.get(key)
        if node is None:
            node = Inode(InodeType.FILE, mode=0o444)
            node.generator = make_generator(self, pid)
            self._cache[key] = node
        return node

    def _lookup_root(self, name: str) -> Inode:
        generators = {
            "uptime": self._gen_uptime,
            "loadavg": self._gen_loadavg,
            "meminfo": self._gen_meminfo,
            "stat": self._gen_stat,
            "version": self._gen_version,
        }
        if name in generators:
            node = self._cache.get(name)
            if node is None:
                node = Inode(InodeType.FILE, mode=0o444)
                node.generator = generators[name]
                self._cache[name] = node
            return node
        if name.isdigit():
            pid = int(name)
            if pid in self.kernel.processes:
                key = f"dir:{pid}"
                node = self._cache.get(key)
                if node is None:
                    node = Inode(InodeType.DIR, mode=0o555, target=str(pid))
                    self._cache[key] = node
                return node
        raise GuestOSError(Errno.ENOENT, f"no /proc entry {name}")

    def create(self, directory: Inode, name: str, itype, **kwargs) -> Inode:
        raise GuestOSError(Errno.EROFS, "procfs is read-only")

    def unlink(self, directory: Inode, name: str) -> None:
        raise GuestOSError(Errno.EROFS, "procfs is read-only")

    def rmdir(self, directory: Inode, name: str) -> None:
        raise GuestOSError(Errno.EROFS, "procfs is read-only")

    def readdir(self, directory: Inode) -> List[str]:
        """List /proc (static files + live pids) or a pid directory."""
        directory.require_dir()
        if directory is self._root:
            pids = [str(pid) for pid in sorted(self.kernel.processes)]
            return list(_STATIC_FILES) + pids
        return ["cmdline", "comm", "stat", "status"]


#: The files of a ``/proc/<pid>`` directory, each with the method that
#: builds its content generator (only on the lookup that creates the
#: node).
_PID_FILES = {
    "stat": ProcFS._gen_pid_stat,
    "status": ProcFS._gen_pid_status,
    "cmdline": ProcFS._gen_pid_cmdline,
    "comm": ProcFS._gen_pid_comm,
}
