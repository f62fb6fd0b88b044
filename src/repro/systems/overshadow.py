"""Overshadow (Chen et al., ASPLOS 2008) — the Table-1 4.5X row, built
out as a runnable system.

Overshadow protects an application *from its own untrusted OS*: the
app's pages are **cloaked** — the OS (and anything else in the guest)
sees only ciphertext; the hypervisor transcrypts at syscall boundaries
through a pair of user-level shims.

**Baseline** (the published design, 9 crossings / 4.5X): every syscall
from a cloaked app traps to the hypervisor, which bounces through the
cloaked shim (marshal arguments out of cloaked memory), the guest
kernel (execute the syscall on uncloaked buffers), and the uncloaked
shim (copy results back under encryption) — four hypervisor detours
per call.

**Optimized** (full CrossOver): the cloaked shim is a *user world* in
the same VM; the app reaches it and the kernel with direct world calls,
with the hypervisor only involved at registration time.

Cloaking is real in the model: the app's data page holds ciphertext in
guest memory; reading the raw frame (as the OS would) never reveals
plaintext — tests verify this end to end.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.authorization import AllowListPolicy
from repro.core.call import CallRequest, WorldCallRuntime
from repro.core.world import World, WorldRegistry
from repro.errors import ConfigurationError, SimulationError
from repro.guestos.kernel import Kernel
from repro.hw.cpu import Mode
from repro.hw.vmx import ExitReason
from repro.hypervisor.paths import (CALLEE, CALLER, CHARGE, EXIT, LAUNCH, RUN,
                                    SYSRET, TRAP_IF_USER, Step, TrapPath)
from repro.testbed import enter_vm_kernel

#: Where the cloaked data page sits in the app's address space.
CLOAKED_BUFFER_GVA = 0x5000_0000

#: Transcryption cost (cycles per byte) at each cloak boundary.
TRANSCRYPT_CYCLES_PER_BYTE = 6

#: The baseline's four hypervisor detours around one syscall (Figure
#: 2's Overshadow row), all within the app's own VM; the run rows are
#: the shim's transcryptions out of and back into cloaked memory.
TRAP_PATH = TrapPath(
    enter=(Step(CHARGE, "user_wrapper"),
           Step(EXIT, ExitReason.VMCALL, "overshadow interpose"),
           Step(LAUNCH, CALLEE, "enter cloaked shim"),
           Step(RUN),
           Step(EXIT, ExitReason.VMCALL, "shim marshalled"),
           Step(LAUNCH, CALLEE, "enter guest kernel"),
           Step(TRAP_IF_USER, None, "uncloaked shim issues syscall")),
    leave=(Step(SYSRET, None, "back to uncloaked shim"),
           Step(EXIT, ExitReason.VMCALL, "syscall done"),
           Step(LAUNCH, CALLEE, "re-cloak results"),
           Step(RUN),
           Step(EXIT, ExitReason.VMCALL, "results cloaked"),
           Step(LAUNCH, CALLER, "resume cloaked app")))


class CloakShim:
    """The shim pair's state: the key and the transcryption helpers."""

    def __init__(self, machine, key: int = 0x5A) -> None:
        self.machine = machine
        self.key = key
        self.transcryptions = 0

    def transcrypt(self, data: bytes) -> bytes:
        """XOR-model encryption/decryption (symmetric), with costs."""
        self.machine.cpu.work(
            max(1, len(data) * TRANSCRYPT_CYCLES_PER_BYTE),
            max(1, len(data) // 4), kind="transcrypt")
        self.transcryptions += 1
        return bytes(b ^ self.key for b in data)


class Overshadow:
    """A cloaked application inside one VM."""

    name = "Overshadow"

    def __init__(self, machine, kernel: Kernel, *, optimized: bool) -> None:
        self.machine = machine
        self.kernel = kernel
        self.optimized = optimized
        if optimized and not machine.features.crossover:
            raise ConfigurationError(
                "the optimized Overshadow uses same-VM world calls; "
                "build the machine with FEATURES_CROSSOVER")
        self.shim = CloakShim(machine)
        self.app = kernel.spawn("cloaked-app")
        self.shim_proc = kernel.spawn("overshadow-shim")
        # The cloaked data page: a real guest frame mapped in the app.
        self._buffer_gpa = kernel.vm.map_new_page("cloaked-data")
        self.app.page_table.map(CLOAKED_BUFFER_GVA, self._buffer_gpa,
                                user=True)
        self.runtime: Optional[WorldCallRuntime] = None
        self.shim_world: Optional[World] = None
        self.kernel_world: Optional[World] = None
        self.app_world: Optional[World] = None
        self._ready = False

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Optimized variant: register the shim/kernel/app worlds."""
        if self._ready:
            return
        if self.optimized:
            registry = WorldRegistry(self.machine)
            self.runtime = WorldCallRuntime(self.machine, registry)
            shim_policy = AllowListPolicy()
            kernel_policy = AllowListPolicy()

            enter_vm_kernel(self.machine, self.kernel.vm)
            self.kernel_world = registry.create_kernel_world(
                self.kernel, handler=self._kernel_entry,
                policy=kernel_policy, service_process=self.shim_proc,
                label="K(guest)")
            self.app_world = registry.create_user_world(
                self.kernel, self.app, label="U(cloaked-app)")
            self.shim_world = registry.create_user_world(
                self.kernel, self.shim_proc, handler=self._shim_entry,
                policy=shim_policy, label="U(shim)")
            shim_policy.grant(self.app_world.wid)
            kernel_policy.grant(self.shim_world.wid)
            self.runtime.setup_channel(self.app_world, self.shim_world,
                                       pages=4)
            self.runtime.setup_channel(self.shim_world, self.kernel_world,
                                       pages=4)
        self._ready = True

    # ------------------------------------------------------------------
    # the cloaked buffer (what the OS must never see in plaintext)
    # ------------------------------------------------------------------

    def app_store_secret(self, plaintext: bytes) -> None:
        """The app places data in its cloaked page (via the shim, which
        encrypts before it touches guest memory)."""
        frame = self.kernel.vm.frame_at(self._buffer_gpa)
        frame.write(0, self.shim.transcrypt(plaintext))

    def app_read_secret(self, length: int) -> bytes:
        """The app reads its own cloaked data (shim decrypts)."""
        frame = self.kernel.vm.frame_at(self._buffer_gpa)
        return self.shim.transcrypt(frame.read(0, length))

    def os_view_of_buffer(self, length: int) -> bytes:
        """What the untrusted OS sees when it inspects the app's page."""
        frame = self.kernel.vm.frame_at(self._buffer_gpa)
        return frame.read(0, length)

    # ------------------------------------------------------------------
    # interposed syscalls
    # ------------------------------------------------------------------

    def cloaked_syscall(self, name: str, *args, **kwargs) -> Any:
        """One syscall from the cloaked app, with shim interposition: the
        hypervisor walks :data:`TRAP_PATH` around it in the baseline."""
        if not self._ready:
            raise SimulationError("setup() must run first")
        if self.optimized:
            return self._worldcall_path(name, args, kwargs)
        cpu = self.machine.cpu
        vm = self.kernel.vm
        if cpu.mode is not Mode.NON_ROOT or cpu.vm_name != vm.name:
            raise SimulationError("the cloaked app is not running")
        marshalled = b"\x00" * self._marshal_cost(args)
        return self.machine.hypervisor.redirect(
            cpu, vm, vm,
            lambda: self.kernel.execute_syscall(self.shim_proc, name, *args,
                                                **kwargs),
            TRAP_PATH, run=lambda: self.shim.transcrypt(marshalled))

    def _marshal_cost(self, args: tuple) -> int:
        return sum(len(a) for a in args if isinstance(a, bytes)) or 16

    # -- optimized: app -> shim -> kernel via world calls ---------------

    def _worldcall_path(self, name: str, args: tuple, kwargs: dict) -> Any:
        assert self.runtime is not None and self.app_world is not None
        assert self.shim_world is not None
        cpu = self.machine.cpu
        if not self.app_world.matches_cpu(cpu):
            self._enter_app_context()
        return self.runtime.call(self.app_world, self.shim_world.wid,
                                 (name, args, kwargs))

    def _enter_app_context(self) -> None:
        enter_vm_kernel(self.machine, self.kernel.vm)
        self.kernel.enter_user(self.app)

    def _shim_entry(self, request: CallRequest) -> Any:
        """The shim world: transcrypt, then world-call the kernel."""
        assert self.runtime is not None and self.kernel_world is not None
        assert self.shim_world is not None
        name, args, kwargs = request.payload
        nbytes = self._marshal_cost(tuple(args))
        self.shim.transcrypt(b"\x00" * nbytes)          # args out
        result = self.runtime.call(self.shim_world, self.kernel_world.wid,
                                   (name, args, kwargs))
        self.shim.transcrypt(b"\x00" * nbytes)          # results back
        return result

    def _kernel_entry(self, request: CallRequest) -> Any:
        name, args, kwargs = request.payload
        return self.kernel.syscalls.invoke(self.shim_proc, name, *args,
                                           **kwargs)
