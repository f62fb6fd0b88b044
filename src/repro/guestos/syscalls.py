"""System call implementations.

Handlers execute against the kernel's VFS/pipe/net substrates and
charge the calibrated per-syscall work from
:mod:`repro.guestos.costs`.  The dispatcher consults the kernel's
pluggable *redirector* first — the hook through which the case-study
systems (Proxos, ShadowContext, ...) intercept and forward syscalls to
another world.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GuestOSError
from repro.guestos.costs import syscall_work
from repro.guestos.fd import OpenFile
from repro.guestos.fs.inode import Errno, Inode, InodeType, StatResult
from repro.guestos.pipe import Pipe
from repro.guestos.process import Process


class SyscallTable:
    """Name -> handler mapping with the common charging logic."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self._handlers: Dict[str, Callable] = {}
        #: name -> (handler, charge kind, handler-body cost), filled on
        #: first dispatch of each syscall.
        self._dispatch_cache: Dict[str, tuple] = {}
        for name in dir(self):
            if name.startswith("sys_"):
                self._handlers[name[4:]] = getattr(self, name)

    def close(self) -> None:
        """Drop the kernel and the handlers (bound methods of this
        table)."""
        self.kernel = None
        self._handlers.clear()
        self._dispatch_cache.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._handlers

    def names(self) -> List[str]:
        """All implemented syscall names."""
        return sorted(self._handlers)

    def invoke(self, proc: Process, name: str, *args, **kwargs):
        """Charge the handler-body work and run the handler."""
        entry = self._dispatch_cache.get(name)
        if entry is None:
            handler = self._handlers.get(name)
            if handler is None:
                raise GuestOSError(Errno.ENOSYS,
                                   f"unimplemented syscall {name}")
            entry = self._dispatch_cache[name] = (
                handler, f"sys_{name}", syscall_work(name))
        handler, kind, work = entry
        self.kernel.cpu.charge(kind, work)
        return handler(proc, *args, **kwargs)

    # ------------------------------------------------------------------
    # identity & misc
    # ------------------------------------------------------------------

    def sys_getpid(self, proc: Process) -> int:
        return proc.pid

    def sys_getppid(self, proc: Process) -> int:
        return proc.parent.pid if proc.parent else 0

    def sys_getuid(self, proc: Process) -> int:
        return proc.uid

    def sys_uname(self, proc: Process) -> Dict[str, str]:
        return {
            "sysname": "Linux",
            "nodename": self.kernel.vm.name,
            "release": "3.16.1-repro",
            "machine": "x86_64",
        }

    def sys_time(self, proc: Process) -> int:
        return int(self.kernel.uptime_seconds())

    def sys_sysinfo(self, proc: Process) -> Dict[str, float]:
        return {
            "uptime": self.kernel.uptime_seconds(),
            "procs": len(self.kernel.processes),
            "totalram": float(2 << 30),
        }

    def sys_sched_yield(self, proc: Process) -> int:
        nxt = self.kernel.scheduler.pick_next(proc)
        if nxt is not None and nxt is not proc:
            self.kernel.scheduler.switch_to(nxt)
        return 0

    # ------------------------------------------------------------------
    # file I/O
    # ------------------------------------------------------------------

    def sys_open(self, proc: Process, path: str, flags: str = "r", *,
                 create: bool = False, trunc: bool = False) -> int:
        kernel = self.kernel
        if create:
            try:
                fs, node = kernel.vfs.resolve(path)
            except GuestOSError as err:
                if err.errno != Errno.ENOENT:
                    raise
                fs, parent, name = kernel.vfs.resolve_parent(path)
                node = fs.create(parent, name, InodeType.FILE)
        else:
            fs, node = kernel.vfs.resolve(path)
        if node.type is InodeType.DIR and "w" in flags:
            raise GuestOSError(Errno.EISDIR, f"cannot write dir {path}")
        if trunc and node.type is InodeType.FILE:
            node.truncate()
        open_file = OpenFile(inode=node, path=path,
                             readable="r" in flags,
                             writable="w" in flags)
        return proc.fds.install(open_file)

    def sys_close(self, proc: Process, fd: int) -> int:
        self.kernel.cpu.charge("fd_lookup")
        open_file = proc.fds.close(fd)
        if open_file.is_pipe and open_file.refcount == 0:
            assert open_file.pipe is not None
            if open_file.pipe_end == "read":
                open_file.pipe.close_read()
            else:
                open_file.pipe.close_write()
        if open_file.is_socket and open_file.refcount == 0:
            self.kernel.net.close(open_file.socket)
        return 0

    def sys_read(self, proc: Process, fd: int, length: int) -> bytes:
        kernel = self.kernel
        kernel.cpu.charge("fd_lookup")
        open_file = proc.fds.get(fd)
        if not open_file.readable:
            raise GuestOSError(Errno.EBADF, "fd not open for reading")
        if open_file.is_pipe:
            kernel.cpu.charge("pipe_read_xfer",
                              syscall_work("pipe_read_xfer"))
            assert open_file.pipe is not None
            data = open_file.pipe.read(length)
        elif open_file.is_socket:
            data = kernel.net.recv(open_file.socket, length)
        else:
            node = open_file.inode
            assert node is not None
            if node.type is InodeType.DEVICE:
                assert node.driver is not None
                data = node.driver.read(open_file.offset, length)
            else:
                data = node.read(open_file.offset, length)
            open_file.offset += len(data)
        if data:
            kernel.copy_to_user(len(data))
        return data

    def sys_write(self, proc: Process, fd: int, data: bytes) -> int:
        kernel = self.kernel
        kernel.cpu.charge("fd_lookup")
        open_file = proc.fds.get(fd)
        if not open_file.writable:
            raise GuestOSError(Errno.EBADF, "fd not open for writing")
        if data:
            kernel.copy_from_user(len(data))
        if open_file.is_pipe:
            kernel.cpu.charge("pipe_write_xfer",
                              syscall_work("pipe_write_xfer"))
            assert open_file.pipe is not None
            return open_file.pipe.write(data)
        if open_file.is_socket:
            return kernel.net.send(open_file.socket, data)
        node = open_file.inode
        assert node is not None
        if node.type is InodeType.DEVICE:
            assert node.driver is not None
            return node.driver.write(open_file.offset, data)
        written = node.write(open_file.offset, data)
        open_file.offset += written
        return written

    def sys_lseek(self, proc: Process, fd: int, offset: int,
                  whence: str = "set") -> int:
        self.kernel.cpu.charge("fd_lookup")
        open_file = proc.fds.get(fd)
        if open_file.is_pipe or open_file.is_socket:
            raise GuestOSError(Errno.ESPIPE, "cannot seek a pipe/socket")
        node = open_file.inode
        assert node is not None
        if whence == "set":
            new = offset
        elif whence == "cur":
            new = open_file.offset + offset
        elif whence == "end":
            new = node.size + offset
        else:
            raise GuestOSError(Errno.EINVAL, f"bad whence {whence!r}")
        if new < 0:
            raise GuestOSError(Errno.EINVAL, "negative offset")
        open_file.offset = new
        return new

    def sys_dup(self, proc: Process, fd: int) -> int:
        self.kernel.cpu.charge("fd_lookup")
        return proc.fds.dup(fd)

    def sys_pread(self, proc: Process, fd: int, length: int,
                  offset: int) -> bytes:
        """Positioned read: does not move the file offset."""
        self.kernel.cpu.charge("fd_lookup")
        open_file = proc.fds.get(fd)
        if open_file.is_pipe or open_file.is_socket:
            raise GuestOSError(Errno.ESPIPE, "pread on pipe/socket")
        if not open_file.readable:
            raise GuestOSError(Errno.EBADF, "fd not open for reading")
        node = open_file.inode
        assert node is not None
        if node.type is InodeType.DEVICE:
            assert node.driver is not None
            data = node.driver.read(offset, length)
        else:
            data = node.read(offset, length)
        if data:
            self.kernel.copy_to_user(len(data))
        return data

    def sys_pwrite(self, proc: Process, fd: int, data: bytes,
                   offset: int) -> int:
        """Positioned write: does not move the file offset."""
        self.kernel.cpu.charge("fd_lookup")
        open_file = proc.fds.get(fd)
        if open_file.is_pipe or open_file.is_socket:
            raise GuestOSError(Errno.ESPIPE, "pwrite on pipe/socket")
        if not open_file.writable:
            raise GuestOSError(Errno.EBADF, "fd not open for writing")
        node = open_file.inode
        assert node is not None
        if data:
            self.kernel.copy_from_user(len(data))
        if node.type is InodeType.DEVICE:
            assert node.driver is not None
            return node.driver.write(offset, data)
        return node.write(offset, data)

    def sys_fsync(self, proc: Process, fd: int) -> int:
        """Durability barrier (a cost-only operation on ramfs)."""
        self.kernel.cpu.charge("fd_lookup")
        open_file = proc.fds.get(fd)
        if open_file.inode is None:
            raise GuestOSError(Errno.EINVAL, "fsync on pipe/socket")
        return 0

    def sys_ioctl(self, proc: Process, fd: int, request: str,
                  *args) -> int:
        self.kernel.cpu.charge("fd_lookup")
        open_file = proc.fds.get(fd)
        if open_file.inode is None or \
                open_file.inode.type is not InodeType.DEVICE:
            raise GuestOSError(Errno.EINVAL, f"ioctl on non-device fd {fd}")
        return 0

    def sys_nanosleep(self, proc: Process, nanoseconds: int) -> int:
        """Busy-model sleep: charges the cycles the caller waits."""
        if nanoseconds < 0:
            raise GuestOSError(Errno.EINVAL, "negative sleep")
        from repro.hw.costs import CLOCK_HZ

        cycles = int(nanoseconds * CLOCK_HZ / 1e9)
        if cycles:
            self.kernel.cpu.work(cycles, 1, kind="sleep")
        return 0

    def sys_fstat(self, proc: Process, fd: int) -> StatResult:
        self.kernel.cpu.charge("fd_lookup")
        open_file = proc.fds.get(fd)
        if open_file.inode is None:
            raise GuestOSError(Errno.EINVAL, "fstat on pipe/socket")
        return open_file.inode.stat()

    def sys_pipe(self, proc: Process) -> Tuple[int, int]:
        pipe = Pipe()
        rfd = proc.fds.install(OpenFile(pipe=pipe, pipe_end="read",
                                        readable=True, writable=False))
        wfd = proc.fds.install(OpenFile(pipe=pipe, pipe_end="write",
                                        readable=False, writable=True))
        return rfd, wfd

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------

    def sys_stat(self, proc: Process, path: str) -> StatResult:
        _, node = self.kernel.vfs.resolve(path)
        return node.stat()

    def sys_lstat(self, proc: Process, path: str) -> StatResult:
        _, node = self.kernel.vfs.resolve(path, follow_symlinks=False)
        return node.stat()

    def sys_access(self, proc: Process, path: str) -> int:
        self.kernel.vfs.resolve(path)
        return 0

    def sys_mkdir(self, proc: Process, path: str, mode: int = 0o755) -> int:
        fs, parent, name = self.kernel.vfs.resolve_parent(path)
        fs.create(parent, name, InodeType.DIR, mode=mode)
        return 0

    def sys_rmdir(self, proc: Process, path: str) -> int:
        fs, parent, name = self.kernel.vfs.resolve_parent(path)
        fs.rmdir(parent, name)
        return 0

    def sys_unlink(self, proc: Process, path: str) -> int:
        fs, parent, name = self.kernel.vfs.resolve_parent(path)
        fs.unlink(parent, name)
        return 0

    def sys_rename(self, proc: Process, old: str, new: str) -> int:
        """Rename within one filesystem (no cross-mount renames)."""
        old_fs, old_parent, old_name = self.kernel.vfs.resolve_parent(old)
        new_fs, new_parent, new_name = self.kernel.vfs.resolve_parent(new)
        if old_fs is not new_fs:
            raise GuestOSError(Errno.EINVAL, "cross-filesystem rename")
        if getattr(old_fs, "name", "") != "ramfs":
            raise GuestOSError(Errno.EROFS,
                               f"{getattr(old_fs, 'name', '?')} is "
                               "read-only")
        node = old_fs.lookup(old_parent, old_name)
        assert new_parent.children is not None
        if new_name in new_parent.children:
            raise GuestOSError(Errno.EEXIST, f"exists: {new}")
        assert old_parent.children is not None
        del old_parent.children[old_name]
        new_parent.children[new_name] = node
        return 0

    def sys_symlink(self, proc: Process, target: str, path: str) -> int:
        fs, parent, name = self.kernel.vfs.resolve_parent(path)
        fs.create(parent, name, InodeType.SYMLINK, target=target)
        return 0

    def sys_readlink(self, proc: Process, path: str) -> str:
        _, node = self.kernel.vfs.resolve(path, follow_symlinks=False)
        if node.type is not InodeType.SYMLINK:
            raise GuestOSError(Errno.EINVAL, f"not a symlink: {path}")
        return node.target

    def sys_readdir(self, proc: Process, path: str) -> List[str]:
        fs, node = self.kernel.vfs.resolve(path)
        names = fs.readdir(node)
        if names:
            self.kernel.copy_to_user(sum(len(n) + 1 for n in names))
        return names

    def sys_chdir(self, proc: Process, path: str) -> int:
        _, node = self.kernel.vfs.resolve(path)
        node.require_dir()
        proc.cwd = path
        return 0

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def sys_fork(self, proc: Process) -> int:
        child = self.kernel.spawn(f"{proc.name}", parent=proc, uid=proc.uid)
        return child.pid

    def sys_exit(self, proc: Process, code: int = 0) -> None:
        self.kernel.reap(proc, code)

    def sys_wait(self, proc: Process) -> Optional[Tuple[int, int]]:
        for child in proc.children:
            if child.state == "zombie":
                proc.children.remove(child)
                self.kernel.processes.pop(child.pid, None)
                assert child.exit_code is not None
                return child.pid, child.exit_code
        return None

    def sys_kill(self, proc: Process, pid: int, signal: int = 15) -> int:
        target = self.kernel.processes.get(pid)
        if target is None:
            raise GuestOSError(Errno.ENOENT, f"no process {pid}")
        if signal in (9, 15):
            self.kernel.reap(target, -signal)
        return 0

    # ------------------------------------------------------------------
    # sockets (delegate to the guest network stack)
    # ------------------------------------------------------------------

    def sys_socket(self, proc: Process) -> int:
        sock = self.kernel.net.socket()
        return proc.fds.install(OpenFile(socket=sock))

    def sys_bind(self, proc: Process, fd: int, port: int) -> int:
        self.kernel.cpu.charge("fd_lookup")
        self.kernel.net.bind(proc.fds.get(fd).socket, port)
        return 0

    def sys_listen(self, proc: Process, fd: int) -> int:
        self.kernel.cpu.charge("fd_lookup")
        self.kernel.net.listen(proc.fds.get(fd).socket)
        return 0

    def sys_connect(self, proc: Process, fd: int, host: str, port: int) -> int:
        self.kernel.cpu.charge("fd_lookup")
        self.kernel.net.connect(proc.fds.get(fd).socket, host, port)
        return 0

    def sys_accept(self, proc: Process, fd: int) -> int:
        self.kernel.cpu.charge("fd_lookup")
        conn = self.kernel.net.accept(proc.fds.get(fd).socket)
        return proc.fds.install(OpenFile(socket=conn))

    def sys_send(self, proc: Process, fd: int, data: bytes) -> int:
        self.kernel.cpu.charge("fd_lookup")
        self.kernel.copy_from_user(len(data))
        return self.kernel.net.send(proc.fds.get(fd).socket, data)

    def sys_recv(self, proc: Process, fd: int, length: int) -> bytes:
        self.kernel.cpu.charge("fd_lookup")
        data = self.kernel.net.recv(proc.fds.get(fd).socket, length)
        if data:
            self.kernel.copy_to_user(len(data))
        return data
