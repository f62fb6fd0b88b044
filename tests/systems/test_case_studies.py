"""Case-study system tests: correctness + world-switch behaviour of all
four reimplemented systems, baseline and optimized."""

import pytest

from repro.core.crossvm import CrossVMSyscallMechanism
from repro.errors import GuestOSError, SimulationError
from repro.hw.cpu import Mode
from repro.systems import HyperShell, Proxos, ShadowContext, Tahoma
from repro.systems.base import install_redirection
from repro.testbed import build_two_vm_machine, enter_vm_kernel, exit_to_host

ALL_SYSTEMS = [Proxos, HyperShell, Tahoma, ShadowContext]


def build(system_cls, optimized):
    machine, vm1, k1, vm2, k2 = build_two_vm_machine()
    system = system_cls(machine, vm1, vm2, optimized=optimized)
    enter_vm_kernel(machine, vm1)
    system.setup()
    enter_vm_kernel(machine, vm1)
    return machine, k1, k2, system


@pytest.mark.parametrize("system_cls", ALL_SYSTEMS)
@pytest.mark.parametrize("optimized", [False, True])
class TestRedirectionCorrectness:
    def test_result_comes_from_remote_vm(self, system_cls, optimized):
        machine, k1, k2, system = build(system_cls, optimized)
        info = system.redirect_syscall("uname")
        assert info["nodename"] == k2.vm.name   # remote identity

    def test_remote_file_state_visible(self, system_cls, optimized):
        machine, k1, k2, system = build(system_cls, optimized)
        root = k2.rootfs.root()
        tmp = k2.rootfs.lookup(root, "tmp")
        from repro.guestos.fs.inode import InodeType

        marker = k2.rootfs.create(tmp, "remote-marker", InodeType.FILE)
        assert marker.data is not None
        marker.data += b"only-in-vm2"
        enter_vm_kernel(machine, system.local_vm)
        fd = system.redirect_syscall("open", "/tmp/remote-marker", "r")
        data = system.redirect_syscall("read", fd, 64)
        system.redirect_syscall("close", fd)
        assert data == b"only-in-vm2"

    def test_remote_errno_propagates(self, system_cls, optimized):
        machine, k1, k2, system = build(system_cls, optimized)
        with pytest.raises(GuestOSError) as exc:
            system.redirect_syscall("open", "/tmp/absent", "r")
        assert exc.value.errno == 2

    def test_cpu_state_restored_after_call(self, system_cls, optimized):
        machine, k1, k2, system = build(system_cls, optimized)
        system.redirect_syscall("getppid")
        cpu = machine.cpu
        assert cpu.vm_name == system.local_vm.name
        assert cpu.ring == 0

    def test_setup_idempotent(self, system_cls, optimized):
        machine, k1, k2, system = build(system_cls, optimized)
        system.setup()    # second call is a no-op
        system.redirect_syscall("getppid")


@pytest.mark.parametrize("system_cls", ALL_SYSTEMS)
class TestOptimizationEffect:
    def test_optimized_is_much_faster(self, system_cls):
        def latency(optimized):
            machine, k1, k2, system = build(system_cls, optimized)
            system.redirect_syscall("getppid")       # warm
            snap = machine.cpu.perf.snapshot()
            system.redirect_syscall("getppid")
            return snap.delta(machine.cpu.perf.snapshot()).cycles

        baseline = latency(False)
        optimized = latency(True)
        assert optimized < baseline / 2

    def test_optimized_has_no_vm_exits(self, system_cls):
        machine, k1, k2, system = build(system_cls, True)
        system.redirect_syscall("getppid")           # warm
        snap = machine.cpu.perf.snapshot()
        system.redirect_syscall("getppid")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("vmexit") == 0
        assert delta.count("vmfunc_ept_switch") == 2

    def test_baseline_bounces_through_hypervisor(self, system_cls):
        machine, k1, k2, system = build(system_cls, False)
        system.redirect_syscall("getppid")           # warm
        snap = machine.cpu.perf.snapshot()
        system.redirect_syscall("getppid")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("vmexit") >= 1
        assert delta.count("vmfunc_ept_switch") == 0


def _trap_round_trip(case):
    """``(machine, caller VM, remote kernel, executor, call)`` for one
    trap round trip: a baseline system or crossvm's baseline mechanism."""
    if case is CrossVMSyscallMechanism:
        machine, vm1, k1, vm2, k2 = build_two_vm_machine()
        mech = CrossVMSyscallMechanism(machine)
        enter_vm_kernel(machine, vm1)
        mech.setup_pair(vm1, vm2)
        executor = k2.spawn("executor")
        enter_vm_kernel(machine, vm1)
        return machine, vm1, k2, executor, (
            lambda name, *args: mech.call(vm1, vm2, name, *args,
                                          executor=executor,
                                          mechanism="baseline"))
    machine, k1, k2, system = build(case, False)
    return (machine, system.local_vm, k2, system.remote_executor,
            system.redirect_syscall)


@pytest.mark.parametrize("case", ALL_SYSTEMS + [CrossVMSyscallMechanism],
                         ids=lambda case: case.__name__)
def test_failing_remote_half_resumes_caller(case):
    """A remote half that raises something other than a guest error
    (here a wrong-arity ``TypeError``) still walks its path back: the
    error propagates with the caller's VM resumed, and the next call
    works."""
    machine, vm1, k2, executor, call = _trap_round_trip(case)
    with pytest.raises(TypeError):
        call("getppid", 1, 2, 3)
    cpu = machine.cpu
    assert (cpu.mode, cpu.vm_name, cpu.ring) == (Mode.NON_ROOT, vm1.name, 0)
    # HyperShell's helper keeps spinning on INT3 between calls; every
    # other executor is asleep again.
    assert (k2.current is executor) == (case is HyperShell)
    assert call("getppid") == call("getppid")


class TestProxosSpecifics:
    def test_libos_syscall_has_no_ring_crossing(self):
        machine, k1, k2, system = build(Proxos, True)
        system.libos_syscall("getppid")              # warm
        snap = machine.cpu.perf.snapshot()
        system.libos_syscall("getppid")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("syscall_trap") == 0
        assert delta.count("sysret") == 0

    def test_libos_syscall_requires_private_vm(self):
        machine, k1, k2, system = build(Proxos, True)
        exit_to_host(machine)
        with pytest.raises(SimulationError):
            system.libos_syscall("getppid")

    def test_baseline_wakes_stub_each_call(self):
        machine, k1, k2, system = build(Proxos, False)
        system.redirect_syscall("getppid")
        snap = machine.cpu.perf.snapshot()
        system.redirect_syscall("getppid")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("context_switch") == 1   # stub wake
        assert delta.count("virq_inject") == 1
        assert delta.count("vm_schedule") == 1


class TestHyperShellSpecifics:
    def test_shell_syscall_from_host_user(self):
        machine, k1, k2, system = build(HyperShell, False)
        exit_to_host(machine)
        machine.hypervisor.enter_host_user(machine.cpu, system.shell)
        pid = system.shell_syscall("getpid")
        assert pid == system.helper.pid
        assert machine.cpu.world_label == "U(host)"

    def test_shell_syscall_refused_on_optimized(self):
        machine, k1, k2, system = build(HyperShell, True)
        with pytest.raises(SimulationError):
            system.shell_syscall("getpid")

    def test_baseline_uses_breakpoint_exits(self):
        machine, k1, k2, system = build(HyperShell, False)
        exit_to_host(machine)
        machine.hypervisor.enter_host_user(machine.cpu, system.shell)
        system.shell_syscall("getppid")
        mark = machine.cpu.trace.mark
        system.shell_syscall("getppid")
        events = machine.cpu.trace.since(mark)
        breakpoints = [e for e in events
                       if e.kind == "vmexit" and "INT3" in e.detail
                       or "helper done" in e.detail]
        assert len(breakpoints) >= 1


    def test_host_start_skips_first_exit_and_last_entry(self):
        def exits_and_entries(call):
            call("getppid")
            snap = machine.cpu.perf.snapshot()
            call("getppid")
            delta = snap.delta(machine.cpu.perf.snapshot())
            return delta.count("vmexit"), delta.count("vmentry")

        machine, k1, k2, system = build(HyperShell, False)
        assert exits_and_entries(system.redirect_syscall) == (3, 3)
        exit_to_host(machine)
        machine.hypervisor.enter_host_user(machine.cpu, system.shell)
        assert exits_and_entries(system.shell_syscall) == (2, 2)


class TestTahomaSpecifics:
    def test_baseline_uses_tcp_and_xml(self):
        machine, k1, k2, system = build(Tahoma, False)
        system.redirect_syscall("getppid")
        snap = machine.cpu.perf.snapshot()
        system.redirect_syscall("getppid")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("xml_marshal") == 4    # enc/dec x 2 directions
        assert delta.count("tcp_segment") >= 4

    def test_baseline_far_slower_than_other_baselines(self):
        def baseline_latency(system_cls):
            machine, k1, k2, system = build(system_cls, False)
            system.redirect_syscall("getppid")
            snap = machine.cpu.perf.snapshot()
            system.redirect_syscall("getppid")
            return snap.delta(machine.cpu.perf.snapshot()).cycles

        assert baseline_latency(Tahoma) > 5 * baseline_latency(ShadowContext)


class TestShadowContextSpecifics:
    def test_baseline_copies_buffers(self):
        machine, k1, k2, system = build(ShadowContext, False)
        system.redirect_syscall("getppid")
        snap = machine.cpu.perf.snapshot()
        system.redirect_syscall("getppid")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("copy") >= 2    # params out + results back

    def test_dummy_process_executes_the_call(self):
        machine, k1, k2, system = build(ShadowContext, False)
        pid = system.redirect_syscall("getpid")
        assert pid == system.dummy.pid


class TestRedirectorInstall:
    def test_selective_redirection(self):
        machine, k1, k2, system = build(ShadowContext, True)
        redirector = install_redirection(system, names=("uname",))
        app = k1.spawn("app")
        k1.enter_user(app)
        assert app.syscall("uname")["nodename"] == k2.vm.name
        assert app.syscall("getpid") == app.pid    # stays local
        assert redirector.redirected_count == 1

    def test_process_control_never_redirected(self):
        machine, k1, k2, system = build(ShadowContext, True)
        install_redirection(system)   # redirect "everything"
        app = k1.spawn("app")
        k1.enter_user(app)
        child_pid = app.syscall("fork")
        assert child_pid in k1.processes   # forked locally
