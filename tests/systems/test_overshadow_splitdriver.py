"""Tests for the Overshadow and split-driver Table-1 extensions."""

import pytest

from repro.errors import ConfigurationError, GuestOSError, SimulationError
from repro.hw.costs import FEATURES_CROSSOVER, FEATURES_VMFUNC
from repro.systems.overshadow import CLOAKED_BUFFER_GVA, Overshadow
from repro.systems.splitdriver import MODES, SplitDriver
from repro.testbed import (
    build_single_vm_machine,
    build_two_vm_machine,
    enter_vm_kernel,
)


def build_overshadow(optimized):
    machine, vm, kernel = build_single_vm_machine(
        features=FEATURES_CROSSOVER)
    shadow = Overshadow(machine, kernel, optimized=optimized)
    shadow.setup()
    enter_vm_kernel(machine, vm)
    kernel.enter_user(shadow.app)
    return machine, kernel, shadow


class TestCloaking:
    def test_os_sees_only_ciphertext(self):
        machine, kernel, shadow = build_overshadow(False)
        secret = b"credit card 4242"
        shadow.app_store_secret(secret)
        os_view = shadow.os_view_of_buffer(len(secret))
        assert os_view != secret
        assert secret not in os_view

    def test_app_reads_its_own_plaintext(self):
        machine, kernel, shadow = build_overshadow(False)
        secret = b"credit card 4242"
        shadow.app_store_secret(secret)
        assert shadow.app_read_secret(len(secret)) == secret

    def test_cloaked_page_is_a_real_guest_frame(self):
        machine, kernel, shadow = build_overshadow(False)
        gpa = shadow.app.page_table.translate(CLOAKED_BUFFER_GVA)
        kernel.vm.ept.translate(gpa)    # mapped through the EPT too


@pytest.mark.parametrize("optimized", [False, True])
class TestInterposedSyscalls:
    def test_syscall_executes_in_guest(self, optimized):
        machine, kernel, shadow = build_overshadow(optimized)
        fd = shadow.cloaked_syscall("open", "/tmp/out", "w", create=True)
        assert shadow.cloaked_syscall("write", fd, b"via shim") == 8
        shadow.cloaked_syscall("close", fd)
        _, node = kernel.vfs.resolve("/tmp/out")
        assert node.content() == b"via shim"

    def test_errno_propagates(self, optimized):
        machine, kernel, shadow = build_overshadow(optimized)
        with pytest.raises(GuestOSError):
            shadow.cloaked_syscall("open", "/absent", "r")

    def test_transcryption_happens_each_call(self, optimized):
        machine, kernel, shadow = build_overshadow(optimized)
        before = shadow.shim.transcryptions
        shadow.cloaked_syscall("getpid")
        # Marshal out + results back: two boundary crossings.
        assert shadow.shim.transcryptions == before + 2


class TestOvershadowShape:
    def test_baseline_pays_four_hypervisor_detours(self):
        machine, kernel, shadow = build_overshadow(False)
        shadow.cloaked_syscall("getpid")
        snap = machine.cpu.perf.snapshot()
        shadow.cloaked_syscall("getpid")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("vmexit") == 4
        assert delta.count("vmentry") == 4

    def test_optimized_has_no_exits(self):
        machine, kernel, shadow = build_overshadow(True)
        shadow.cloaked_syscall("getpid")
        snap = machine.cpu.perf.snapshot()
        shadow.cloaked_syscall("getpid")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("vmexit") == 0
        assert delta.count("world_call_hw") == 4    # app->shim->kernel->..

    def test_optimized_is_faster(self):
        def per_call(optimized):
            machine, kernel, shadow = build_overshadow(optimized)
            shadow.cloaked_syscall("getpid")
            snap = machine.cpu.perf.snapshot()
            for _ in range(5):
                shadow.cloaked_syscall("getpid")
            return snap.delta(machine.cpu.perf.snapshot()).cycles / 5

        assert per_call(True) < per_call(False) / 2

    def test_optimized_requires_crossover(self):
        machine, vm, kernel = build_single_vm_machine(
            features=FEATURES_VMFUNC)
        with pytest.raises(ConfigurationError):
            Overshadow(machine, kernel, optimized=True)


def build_driver(mode):
    machine, guest_vm, guest_os, dom0_vm, dom0_os = build_two_vm_machine(
        names=("guest", "dom0"))
    driver = SplitDriver(machine, guest_os, dom0_os, mode=mode)
    driver.setup()
    enter_vm_kernel(machine, guest_vm)
    return machine, driver


class TestSplitDriver:
    @pytest.mark.parametrize("mode", MODES)
    def test_frames_reach_the_device(self, mode):
        machine, driver = build_driver(mode)
        assert driver.transmit(b"frame-one") == 9
        driver.transmit(b"frame-two")
        assert driver.device.take(100) == b"frame-oneframe-two"
        assert driver.frames_tx == 2

    @pytest.mark.parametrize("mode", MODES)
    def test_cpu_back_in_guest_after_tx(self, mode):
        machine, driver = build_driver(mode)
        driver.transmit(b"x")
        assert machine.cpu.vm_name == "guest"
        assert machine.cpu.ring == 0

    def test_unknown_mode_rejected(self):
        machine, guest_vm, guest_os, dom0_vm, dom0_os = \
            build_two_vm_machine(names=("guest", "dom0"))
        with pytest.raises(ConfigurationError):
            SplitDriver(machine, guest_os, dom0_os, mode="teleport")

    def test_transmit_requires_guest_kernel(self):
        machine, driver = build_driver("paravirt")
        from repro.testbed import exit_to_host

        exit_to_host(machine)
        with pytest.raises(SimulationError):
            driver.transmit(b"x")

    def test_emulated_slower_than_paravirt_slower_than_crossover(self):
        def per_frame(mode):
            machine, driver = build_driver(mode)
            driver.transmit(b"w")        # warm
            snap = machine.cpu.perf.snapshot()
            for _ in range(5):
                driver.transmit(b"w")
            return snap.delta(machine.cpu.perf.snapshot()).cycles / 5

        emulated = per_frame("emulated")
        paravirt = per_frame("paravirt")
        crossover = per_frame("crossover")
        assert crossover < paravirt < emulated

    def test_crossover_mode_exits_only_for_device_io(self):
        machine, driver = build_driver("crossover")
        driver.transmit(b"w")
        mark = machine.cpu.trace.mark
        driver.transmit(b"w")
        events = machine.cpu.trace.since(mark)
        # Two VMFUNC hops; the only exit-shaped charges come from the
        # physical device kick inside dom0 (borrowed-context send).
        assert sum(1 for e in events
                   if e.kind == "vmfunc_ept_switch") == 2

    def test_emulated_mode_visits_qemu(self):
        machine, driver = build_driver("emulated")
        driver.transmit(b"w")
        mark = machine.cpu.trace.mark
        driver.transmit(b"w")
        path = machine.cpu.trace.path(mark)
        assert "U(dom0)" in path     # the user-space device model ran


# One warm call of each hypervisor-mediated baseline: its cycles and
# its (kind, from, to, detail) transition sequence, pinned exactly.
OVERSHADOW_TRACE = (
    ("vmexit", "U(vm1)", "K(host)", "overshadow interpose"),
    ("vmentry", "K(host)", "U(vm1)", "enter cloaked shim"),
    ("vmexit", "U(vm1)", "K(host)", "shim marshalled"),
    ("vmentry", "K(host)", "U(vm1)", "enter guest kernel"),
    ("syscall_trap", "U(vm1)", "K(vm1)", "uncloaked shim issues syscall"),
    ("sysret", "K(vm1)", "U(vm1)", "back to uncloaked shim"),
    ("vmexit", "U(vm1)", "K(host)", "syscall done"),
    ("vmentry", "K(host)", "U(vm1)", "re-cloak results"),
    ("vmexit", "U(vm1)", "K(host)", "results cloaked"),
    ("vmentry", "K(host)", "U(vm1)", "resume cloaked app"),
)
_KICK = (
    ("vmexit", "K(guest)", "K(host)", "event channel kick"),
    ("vm_schedule", "K(host)", "K(host)", "run dom0"),
    ("vmentry", "K(host)", "K(dom0)", "deliver to netback"),
)
_QEMU = (
    ("sysret", "K(dom0)", "U(dom0)", "qemu emulates"),
    ("syscall_trap", "U(dom0)", "K(dom0)", "qemu completes"),
)
_DEVICE_AND_COMPLETION = (
    ("vmexit", "K(dom0)", "K(host)", "tx 64B"),
    ("vmentry", "K(host)", "K(dom0)", "tx done"),
    ("vmexit", "K(dom0)", "K(host)", "tx complete"),
    ("vmentry", "K(host)", "K(guest)", "resume frontend"),
    ("irq_deliver", "K(guest)", "K(guest)", "tx irq"),
)
PINNED_CALLS = {
    "overshadow": (11_572, OVERSHADOW_TRACE),
    "emulated": (35_634, _KICK + _QEMU + _DEVICE_AND_COMPLETION),
    "paravirt": (29_534, _KICK + _DEVICE_AND_COMPLETION),
}


def baseline_call(path):
    """A machine, the object that owns the body of ``path``'s
    hypervisor-mediated baseline (the guest kernel, or the split driver
    whose ``_backend_tx`` runs in dom0) and one call of it: Overshadow's
    ``getpid`` or a 64-byte bounced frame."""
    if path == "overshadow":
        machine, kernel, shadow = build_overshadow(False)
        return machine, kernel, lambda: shadow.cloaked_syscall("getpid")
    machine, driver = build_driver(path)
    return machine, driver, lambda: driver.transmit(b"\x00" * 64)


@pytest.mark.parametrize("path", sorted(PINNED_CALLS))
def test_warm_call_cycles_and_trace_are_pinned(path):
    machine, _owner, call = baseline_call(path)
    call()
    cycles, mark = machine.cpu.perf.cycles, machine.cpu.trace.mark
    call()
    events = machine.cpu.trace.since(mark)
    assert (machine.cpu.perf.cycles - cycles,
            tuple((e.kind, e.frm, e.to, e.detail) for e in events)) == \
        PINNED_CALLS[path]


@pytest.mark.parametrize("path, caller", [("overshadow", "U(vm1)"),
                                          ("emulated", "K(guest)"),
                                          ("paravirt", "K(guest)")])
def test_a_raising_body_unwinds_to_the_caller(path, caller, monkeypatch):
    machine, owner, call = baseline_call(path)
    call()

    def broken(*args, **kwargs):
        raise RuntimeError("body failed")

    body = "execute_syscall" if path == "overshadow" else "_backend_tx"
    monkeypatch.setattr(owner, body, broken)
    with pytest.raises(RuntimeError, match="body failed"):
        call()
    assert machine.cpu.world_label == caller
