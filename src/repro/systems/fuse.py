"""FUSE (user-space filesystems) — the Table-1 "Decoupling" row, built
out as a runnable system.

A daemon process inside one VM implements a filesystem in user space;
applications' FS syscalls under the mount point are served by it.

**Baseline** (the published design, 2X the minimal crossings): the
kernel intercepts each FS syscall, queues the request for the daemon,
context-switches to it, the daemon serves the request in user space and
traps back, and the kernel resumes the application —
``U(app) -> K -> U(fuse) -> K -> U(app)``.

**Optimized** (full CrossOver only): the application's FS library calls
the daemon *directly* with a same-VM user-to-user ``world_call`` —
``U(app) -> U(fuse) -> U(app)``.  Plain VMFUNC cannot express this hop:
it switches only the EPT, and both worlds share one; the paper's
extension switches CR3 + ring too.  Requesting the optimized variant on
a machine without the CrossOver extension raises
:class:`~repro.errors.ConfigurationError`.

Both variants are served by the same in-daemon filesystem state, so
tests can verify end-to-end equivalence.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.authorization import AllowListPolicy
from repro.core.call import CallRequest, WorldCallRuntime
from repro.core.world import World, WorldRegistry
from repro.errors import ConfigurationError, GuestOSError, SimulationError
from repro.guestos.fs.inode import Errno, InodeType
from repro.guestos.fs.ramfs import RamFS
from repro.guestos.kernel import Kernel, SyscallRedirector
from repro.guestos.process import Process

#: Mount point the daemon serves.
MOUNT_POINT = "/mnt"

#: Daemon-issued handles start here so they never collide with kernel
#: descriptors.
HANDLE_BASE = 0x1000

#: User-space work per served operation (request parsing + fs logic).
DAEMON_WORK_CYCLES = 1400


class FuseDaemon:
    """The user-space filesystem server (runs as a guest process)."""

    def __init__(self, proc: Process) -> None:
        self.proc = proc
        self.fs = RamFS()
        self._handles: Dict[int, Tuple[object, int]] = {}  # handle->(inode,off)
        self._next_handle = HANDLE_BASE
        self.requests_served = 0

    # -- request handling (executed in the daemon's user context) -------

    def serve(self, op: str, *args) -> Any:
        """Serve one FUSE request against the in-daemon filesystem."""
        self.proc.compute(DAEMON_WORK_CYCLES)
        self.requests_served += 1
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise GuestOSError(Errno.ENOSYS, f"FUSE op {op} unsupported")
        return handler(*args)

    def _resolve(self, path: str):
        parts = [p for p in path.split("/") if p]
        node = self.fs.root()
        for part in parts:
            node = self.fs.lookup(node, part)
        return node

    def _resolve_parent(self, path: str):
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise GuestOSError(Errno.EINVAL, "bad path")
        node = self.fs.root()
        for part in parts[:-1]:
            node = self.fs.lookup(node, part)
        return node, parts[-1]

    def _op_open(self, path: str, flags: str, create: bool):
        try:
            node = self._resolve(path)
        except GuestOSError:
            if not create:
                raise
            parent, name = self._resolve_parent(path)
            node = self.fs.create(parent, name, InodeType.FILE)
        handle = self._next_handle
        self._next_handle += 1
        self._handles[handle] = (node, 0)
        return handle

    def _op_close(self, handle: int):
        if self._handles.pop(handle, None) is None:
            raise GuestOSError(Errno.EBADF, f"bad FUSE handle {handle}")
        return 0

    def _op_read(self, handle: int, length: int):
        entry = self._handles.get(handle)
        if entry is None:
            raise GuestOSError(Errno.EBADF, f"bad FUSE handle {handle}")
        node, offset = entry
        data = node.read(offset, length)
        self._handles[handle] = (node, offset + len(data))
        return data

    def _op_write(self, handle: int, data: bytes):
        entry = self._handles.get(handle)
        if entry is None:
            raise GuestOSError(Errno.EBADF, f"bad FUSE handle {handle}")
        node, offset = entry
        written = node.write(offset, data)
        self._handles[handle] = (node, offset + written)
        return written

    def _op_stat(self, path: str):
        return self._resolve(path).stat()

    def _op_mkdir(self, path: str):
        parent, name = self._resolve_parent(path)
        self.fs.create(parent, name, InodeType.DIR)
        return 0

    def _op_unlink(self, path: str):
        parent, name = self._resolve_parent(path)
        self.fs.unlink(parent, name)
        return 0

    def _op_readdir(self, path: str):
        return self.fs.readdir(self._resolve(path))


#: Which syscalls FUSE can serve, keyed to their daemon op and whether
#: the first argument is a path (mount-point routed) or a handle.
_PATH_OPS = {"open": "open", "stat": "stat", "mkdir": "mkdir",
             "unlink": "unlink", "readdir": "readdir", "access": "stat"}
_HANDLE_OPS = {"read": "read", "write": "write", "close": "close"}


class FuseRedirector(SyscallRedirector):
    """Routes mount-point syscalls (and FUSE handles) to the daemon."""

    def __init__(self, fuse: "UserSpaceFS") -> None:
        self.fuse = fuse

    def should_redirect(self, proc: Process, name: str, args: tuple) -> bool:
        if name in _PATH_OPS and args and isinstance(args[0], str):
            return args[0] == MOUNT_POINT or \
                args[0].startswith(MOUNT_POINT + "/")
        if name in _HANDLE_OPS and args and isinstance(args[0], int):
            return args[0] >= HANDLE_BASE
        return False

    def redirect(self, proc: Process, name: str, args: tuple, kwargs: dict):
        return self.fuse.forward(proc, name, args, kwargs)


class UserSpaceFS:
    """The FUSE deployment inside one VM."""

    name = "FUSE"

    def __init__(self, machine, kernel: Kernel, *, optimized: bool) -> None:
        self.machine = machine
        self.kernel = kernel
        self.optimized = optimized
        if optimized and not machine.features.crossover:
            raise ConfigurationError(
                "user-to-user world calls inside one VM need the full "
                "CrossOver extension (VMFUNC cannot switch CR3/ring)")
        self.daemon_proc = kernel.spawn("fuse-daemon")
        self.daemon = FuseDaemon(self.daemon_proc)
        self.runtime: Optional[WorldCallRuntime] = None
        self.registry: Optional[WorldRegistry] = None
        self.daemon_world: Optional[World] = None
        self._app_worlds: Dict[int, World] = {}
        self._ready = False

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Install the kernel hook; for the optimized variant, register
        the daemon's user world (apps register lazily on first use)."""
        if self._ready:
            return
        self.kernel.install_redirector(FuseRedirector(self))
        if self.optimized:
            self.registry = WorldRegistry(self.machine)
            self.runtime = WorldCallRuntime(self.machine, self.registry)
            policy = AllowListPolicy()

            def entry(request: CallRequest):
                op, args = request.payload
                return self.daemon.serve(op, *args)

            self.daemon_world = self.registry.create_user_world(
                self.kernel, self.daemon_proc, handler=entry,
                policy=policy, label="U(fuse-daemon)")
            self._daemon_policy = policy
        self._ready = True

    def register_app(self, proc: Process) -> World:
        """Register an application's user world and grant it access to
        the daemon (one-time per process, Section 3.3 setup)."""
        if not self.optimized:
            raise SimulationError("baseline FUSE has no app worlds")
        assert self.registry is not None and self.runtime is not None
        assert self.daemon_world is not None
        # Registration hypercalls need kernel mode; the library traps
        # once for this one-time setup (Section 3.3).
        cpu = self.machine.cpu
        from_user = cpu.ring == 3
        if from_user:
            cpu.syscall_trap("fuse world registration")
        try:
            world = self.registry.create_user_world(
                self.kernel, proc, label=f"U({proc.name})")
            self._daemon_policy.grant(world.wid)
            self.runtime.setup_channel(world, self.daemon_world, pages=4)
        finally:
            if from_user:
                cpu.sysret("fuse world registered")
        self._app_worlds[proc.pid] = world
        return world

    # ------------------------------------------------------------------
    # the redirected operation
    # ------------------------------------------------------------------

    def forward(self, proc: Process, name: str, args: tuple,
                kwargs: dict) -> Any:
        """Serve one intercepted syscall through the daemon."""
        op, op_args = self._translate(name, args, kwargs)
        if self.optimized:
            return self._direct_call(proc, op, op_args)
        return self._kernel_bounce(proc, op, op_args)

    @staticmethod
    def _translate(name: str, args: tuple, kwargs: dict
                   ) -> Tuple[str, tuple]:
        if name in _PATH_OPS:
            # The daemon sees mount-relative paths.
            path = args[0]
            relative = path[len(MOUNT_POINT):] or "/"
            if name == "open":
                flags = args[1] if len(args) > 1 else "r"
                return "open", (relative, flags, kwargs.get("create", False))
            return _PATH_OPS[name], (relative,) + tuple(args[1:])
        return _HANDLE_OPS[name], args

    def _kernel_bounce(self, proc: Process, op: str, args: tuple) -> Any:
        """Baseline: the kernel queues the request and context-switches
        to the daemon; the daemon replies with another syscall."""
        cpu = self.machine.cpu
        kernel = self.kernel
        # Kernel side: queue + wake the daemon.
        kernel.scheduler.switch_to(self.daemon_proc, "wake fuse daemon")
        cpu.sysret("fuse daemon runs")
        try:
            return self.daemon.serve(op, *args)
        finally:
            # Daemon replies (trap) and the kernel resumes the caller,
            # whatever the daemon raised.
            cpu.charge("user_wrapper")
            cpu.syscall_trap("fuse reply")
            cpu.charge("syscall_dispatch")
            kernel.scheduler.switch_to(proc, "resume app")

    def _direct_call(self, proc: Process, op: str, args: tuple) -> Any:
        """Optimized: a same-VM U->U world call, no kernel involved.

        The interception happens at the FS library level, so the app
        never trapped: this path is driven by :meth:`fs_call`.  When it
        *is* reached through a trapped syscall (the redirector), the
        semantics are identical; only the entry differs.
        """
        assert self.runtime is not None and self.daemon_world is not None
        world = self._app_worlds.get(proc.pid)
        if world is None:
            world = self.register_app(proc)
        cpu = self.machine.cpu
        trapped = cpu.ring == 0
        if trapped:
            # The call slipped into the kernel (unmodified libc): the
            # kernel bounces it back to the FS library in user space,
            # which then world-calls the daemon directly.
            cpu.sysret("bounce to FS library")
        try:
            return self.runtime.call(world, self.daemon_world.wid,
                                     (op, args))
        finally:
            if trapped:
                cpu.syscall_trap("FS library returns")

    def fs_call(self, proc: Process, name: str, *args, **kwargs) -> Any:
        """The optimized variant's library entry point: call the daemon
        straight from the application's user context (no trap)."""
        if not self.optimized:
            raise SimulationError("fs_call is the optimized entry point")
        cpu = self.machine.cpu
        cpu.charge("user_wrapper")
        op, op_args = self._translate(name, args, kwargs)
        return self._direct_call(proc, op, op_args)
