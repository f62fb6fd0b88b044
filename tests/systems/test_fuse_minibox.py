"""Tests for the FUSE and MiniBox Table-1 extensions."""

import pytest

from repro.errors import (
    AuthorizationDenied,
    ConfigurationError,
    GuestOSError,
)
from repro.hw.costs import FEATURES_CROSSOVER, FEATURES_VMFUNC
from repro.systems.fuse import HANDLE_BASE, UserSpaceFS
from repro.systems.minibox import MiniBox
from repro.testbed import (
    build_single_vm_machine,
    build_two_vm_machine,
    enter_vm_kernel,
)


def build_fuse(optimized):
    machine, vm, kernel = build_single_vm_machine(
        features=FEATURES_CROSSOVER)
    fuse = UserSpaceFS(machine, kernel, optimized=optimized)
    enter_vm_kernel(machine, vm)
    fuse.setup()
    enter_vm_kernel(machine, vm)
    app = kernel.spawn("app")
    kernel.enter_user(app)
    return machine, kernel, fuse, app


class TestFuseBaseline:
    def test_file_roundtrip_through_daemon(self):
        machine, kernel, fuse, app = build_fuse(False)
        fd = app.syscall("open", "/mnt/notes.txt", "rw", create=True)
        assert fd >= HANDLE_BASE
        assert app.syscall("write", fd, b"user-space fs!") == 14
        app.syscall("close", fd)
        fd = app.syscall("open", "/mnt/notes.txt", "r")
        assert app.syscall("read", fd, 100) == b"user-space fs!"
        app.syscall("close", fd)
        assert fuse.daemon.requests_served == 6

    def test_mkdir_readdir_unlink(self):
        machine, kernel, fuse, app = build_fuse(False)
        app.syscall("mkdir", "/mnt/d")
        fd = app.syscall("open", "/mnt/d/f", "w", create=True)
        app.syscall("close", fd)
        assert app.syscall("readdir", "/mnt/d") == ["f"]
        app.syscall("unlink", "/mnt/d/f")
        assert app.syscall("readdir", "/mnt/d") == []

    def test_a_raising_daemon_unwinds_to_the_app(self, monkeypatch):
        machine, kernel, fuse, app = build_fuse(False)

        def broken(op, *args):
            raise RuntimeError("daemon crashed")

        monkeypatch.setattr(fuse.daemon, "serve", broken)
        with pytest.raises(RuntimeError, match="daemon crashed"):
            app.syscall("stat", "/mnt")
        assert kernel.current is app
        assert machine.cpu.world_label == "U(vm1)"

    def test_non_mount_paths_stay_in_kernel(self):
        machine, kernel, fuse, app = build_fuse(False)
        served = fuse.daemon.requests_served
        app.syscall("stat", "/tmp/f")
        assert fuse.daemon.requests_served == served

    def test_missing_file_errno(self):
        machine, kernel, fuse, app = build_fuse(False)
        with pytest.raises(GuestOSError) as exc:
            app.syscall("open", "/mnt/ghost", "r")
        assert exc.value.errno == 2

    def test_baseline_pays_two_context_switches(self):
        machine, kernel, fuse, app = build_fuse(False)
        app.syscall("stat", "/mnt") if False else None
        fd = app.syscall("open", "/mnt/x", "w", create=True)
        snap = machine.cpu.perf.snapshot()
        app.syscall("write", fd, b"z")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("context_switch") == 2


class TestFuseOptimized:
    def test_requires_crossover_hardware(self):
        machine, vm, kernel = build_single_vm_machine(
            features=FEATURES_VMFUNC)
        with pytest.raises(ConfigurationError):
            UserSpaceFS(machine, kernel, optimized=True)

    def test_library_call_no_kernel_entry(self):
        machine, kernel, fuse, app = build_fuse(True)
        handle = fuse.fs_call(app, "open", "/mnt/direct", "rw",
                              create=True)
        snap = machine.cpu.perf.snapshot()
        fuse.fs_call(app, "write", handle, b"no kernel involved")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("syscall_trap") == 0
        assert delta.count("context_switch") == 0
        assert delta.count("world_call_hw") == 2

    def test_state_shared_between_entry_paths(self):
        """Data written via the library path is readable via the
        trapped-syscall path — one daemon serves both."""
        machine, kernel, fuse, app = build_fuse(True)
        handle = fuse.fs_call(app, "open", "/mnt/shared", "rw",
                              create=True)
        fuse.fs_call(app, "write", handle, b"both paths")
        fuse.fs_call(app, "close", handle)
        fd = app.syscall("open", "/mnt/shared", "r")
        assert app.syscall("read", fd, 100) == b"both paths"

    def test_optimized_faster_than_baseline(self):
        def per_op(optimized):
            machine, kernel, fuse, app = build_fuse(optimized)
            fd = app.syscall("open", "/mnt/t", "w", create=True)
            app.syscall("write", fd, b"w")         # warm
            snap = machine.cpu.perf.snapshot()
            for _ in range(5):
                app.syscall("write", fd, b"w")
            return snap.delta(machine.cpu.perf.snapshot()).cycles / 5

        assert per_op(True) < per_op(False) / 2

    def test_second_app_gets_own_world(self):
        machine, kernel, fuse, app = build_fuse(True)
        fuse.fs_call(app, "open", "/mnt/a", "w", create=True)
        app2 = kernel.spawn("app2")
        kernel.yield_to(app2)
        fuse.fs_call(app2, "open", "/mnt/b", "w", create=True)
        assert len(fuse._app_worlds) == 2
        wids = {w.wid for w in fuse._app_worlds.values()}
        assert len(wids) == 2


class TestMiniBox:
    @pytest.fixture
    def minibox(self):
        machine, vm1, k1, vm2, k2 = build_two_vm_machine(
            features=FEATURES_CROSSOVER, names=("sandbox", "trusted"))
        box = MiniBox(machine, k1, k2)
        box.setup()
        return machine, box

    def test_requires_crossover(self):
        machine, vm1, k1, vm2, k2 = build_two_vm_machine(
            features=FEATURES_VMFUNC)
        with pytest.raises(ConfigurationError):
            MiniBox(machine, k1, k2)

    def test_seal_unseal_roundtrip(self, minibox):
        machine, box = minibox
        assert box.downcall("seal", "secret", b"top secret") == 10
        assert box.downcall("unseal", "secret") == b"top secret"

    def test_unseal_missing(self, minibox):
        machine, box = minibox
        with pytest.raises(GuestOSError):
            box.downcall("unseal", "nothing")

    def test_attestation(self, minibox):
        machine, box = minibox
        report = box.downcall("attest", 1234)
        assert report["nonce"] == 1234 and report["signed"]

    def test_trusted_syscall_service(self, minibox):
        machine, box = minibox
        info = box.downcall("syscall", "uname")
        assert info["nodename"] == "trusted"

    def test_ungranted_service_denied(self, minibox):
        machine, box = minibox
        # Re-grant with a narrower service list.
        box._trusted_policy.grant(box.sandbox_world.wid, "attest")
        with pytest.raises(AuthorizationDenied):
            box.downcall("seal", "x", b"y")
        box.downcall("attest", 1)      # still allowed

    def test_upcall_into_sandbox(self, minibox):
        machine, box = minibox
        received = []
        box.on_upcall(lambda payload: (received.append(payload), "ack")[1])
        assert box.upcall({"challenge": 99}) == "ack"
        assert received == [{"challenge": 99}]

    def test_upcall_without_handler_fails(self, minibox):
        machine, box = minibox
        with pytest.raises(GuestOSError):
            box.upcall("ping")

    def test_stranger_world_cannot_downcall(self, minibox):
        """A third world (not the registered sandbox) is refused by the
        trusted side's policy — authentication is unforgeable."""
        machine, box = minibox
        from repro.testbed import exit_to_host

        stranger = box.registry.create_host_kernel_world(
            handler=lambda r: None)
        exit_to_host(machine)
        with pytest.raises(AuthorizationDenied):
            box.runtime.call(stranger, box.trusted_world.wid,
                             ("seal", "x", b"y"))

    def test_isolation_is_mutual(self, minibox):
        """The sandbox's policy also gates who may upcall into it."""
        machine, box = minibox
        box.on_upcall(lambda payload: "ack")
        box._sandbox_policy.revoke(box.trusted_world.wid)
        with pytest.raises(AuthorizationDenied):
            box.upcall("ping")
