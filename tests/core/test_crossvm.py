"""Section 4.3 cross-VM syscall mechanism tests (plain VMFUNC)."""

import pytest

from repro.core.crossvm import (
    CROSS_CODE_GVA,
    CrossVMSyscallMechanism,
    SHARED_GVA,
)
from repro.errors import (
    ConfigurationError,
    GeneralProtectionFault,
    GuestOSError,
    SimulationError,
)
from repro.hw.costs import FEATURES_BASELINE
from repro.machine import Machine
from repro.testbed import build_two_vm_machine, enter_vm_kernel


@pytest.fixture
def mechanism(two_vms):
    machine, vm1, k1, vm2, k2 = two_vms
    mech = CrossVMSyscallMechanism(machine)
    enter_vm_kernel(machine, vm1)
    mech.setup_pair(vm1, vm2)
    enter_vm_kernel(machine, vm1)
    return machine, vm1, k1, vm2, k2, mech


class TestSetup:
    def test_requires_vmfunc_hardware(self):
        machine = Machine(features=FEATURES_BASELINE)
        with pytest.raises(ConfigurationError):
            CrossVMSyscallMechanism(machine)

    def test_requires_booted_kernels(self, machine):
        vm1 = machine.hypervisor.create_vm("a")
        vm2 = machine.hypervisor.create_vm("b")
        mech = CrossVMSyscallMechanism(machine)
        with pytest.raises(ConfigurationError):
            mech.setup_pair(vm1, vm2)

    def test_idempotent(self, mechanism):
        machine, vm1, k1, vm2, k2, mech = mechanism
        state1 = mech.setup_pair(vm1, vm2)
        state2 = mech.setup_pair(vm2, vm1)    # order-insensitive
        assert state1 is state2

    def test_helper_page_table_shared_cr3(self, mechanism):
        """The helper context has literally the same CR3 value on both
        sides of the EPT switch (Section 4.2)."""
        machine, vm1, k1, vm2, k2, mech = mechanism
        state = mech.setup_pair(vm1, vm2)
        helper = state.helper_pt
        # GPAs of the shared pages are valid in both VMs' EPTs.
        gpa = helper.translate(SHARED_GVA, user=True, write=True)
        assert vm1.ept.translate(gpa) == vm2.ept.translate(gpa)

    def test_cross_code_page_in_every_process(self, mechanism):
        machine, vm1, k1, vm2, k2, mech = mechanism
        for kernel in (k1, k2):
            for proc in kernel.processes.values():
                gpa = proc.page_table.translate(CROSS_CODE_GVA, user=False,
                                                execute=True)
                # read-only: a write attempt faults
                with pytest.raises(Exception):
                    proc.page_table.translate(CROSS_CODE_GVA, user=False,
                                              write=True)

    def test_call_without_setup_rejected(self, two_vms):
        machine, vm1, k1, vm2, k2 = two_vms
        mech = CrossVMSyscallMechanism(machine)
        enter_vm_kernel(machine, vm1)
        with pytest.raises(ConfigurationError):
            mech.call(vm1, vm2, "getpid")


class TestCall:
    def test_remote_execution(self, mechanism):
        machine, vm1, k1, vm2, k2, mech = mechanism
        pid = mech.call(vm1, vm2, "getpid")
        assert pid == mech.setup_pair(vm1, vm2).helpers["vm2"].pid

    def test_cpu_returns_to_local_kernel(self, mechanism):
        machine, vm1, k1, vm2, k2, mech = mechanism
        saved_cr3 = machine.cpu.cr3
        mech.call(vm1, vm2, "getppid")
        assert machine.cpu.vm_name == "vm1"
        assert machine.cpu.ring == 0
        assert machine.cpu.cr3 == saved_cr3

    def test_data_crosses_vms(self, mechanism):
        """A file written in vm2 through the mechanism is readable
        natively in vm2: the payload genuinely moved."""
        machine, vm1, k1, vm2, k2, mech = mechanism
        fd = mech.call(vm1, vm2, "open", "/tmp/remote", "w", create=True)
        assert mech.call(vm1, vm2, "write", fd, b"across worlds") == 13
        mech.call(vm1, vm2, "close", fd)
        _, node = k2.vfs.resolve("/tmp/remote")
        assert node.content() == b"across worlds"

    def test_remote_errno_propagates(self, mechanism):
        machine, vm1, k1, vm2, k2, mech = mechanism
        with pytest.raises(GuestOSError) as exc:
            mech.call(vm1, vm2, "open", "/no/such/file", "r")
        assert exc.value.errno == 2
        assert machine.cpu.vm_name == "vm1"

    def test_two_ept_switches_per_call(self, mechanism):
        machine, vm1, k1, vm2, k2, mech = mechanism
        mech.call(vm1, vm2, "getppid")    # warm
        mark = machine.cpu.trace.mark
        mech.call(vm1, vm2, "getppid")
        events = machine.cpu.trace.since(mark)
        assert sum(1 for e in events
                   if e.kind == "vmfunc_ept_switch") == 2
        assert sum(1 for e in events if e.kind == "vmexit") == 0

    def test_interrupt_discipline(self, mechanism):
        """Interrupts are disabled around the switch and re-enabled on
        both sides (Figure 4's cli/sti pattern)."""
        machine, vm1, k1, vm2, k2, mech = mechanism
        snap = machine.cpu.perf.snapshot()
        mech.call(vm1, vm2, "getppid")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("int_toggle") == 4    # cli,sti,cli,sti
        assert delta.count("idt_switch") == 2    # IDT2 then IDT1
        assert machine.cpu.interrupts.interrupts_enabled

    def test_must_start_in_local_kernel(self, mechanism):
        machine, vm1, k1, vm2, k2, mech = mechanism
        enter_vm_kernel(machine, vm2)
        with pytest.raises(SimulationError):
            mech.call(vm1, vm2, "getpid")

    def test_custom_executor(self, mechanism):
        machine, vm1, k1, vm2, k2, mech = mechanism
        custom = k2.spawn("custom-runner")
        pid = mech.call(vm1, vm2, "getpid", executor=custom)
        assert pid == custom.pid

    def test_oversized_payload_rejected(self, mechanism):
        machine, vm1, k1, vm2, k2, mech = mechanism
        with pytest.raises(SimulationError):
            mech.call(vm1, vm2, "write", 1, b"x" * (90 * 4096))

    # ``fused`` runs the round trip untraced, as its two straight-line
    # halves; ``stepwise`` runs it with the transition trace on.
    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fused", "stepwise"])
    def test_oversized_reply_unwinds_to_caller(self, mechanism, fast):
        """A reply too large for the shared page fails the call, but
        only after switching back: the CPU ends in vm1's own context
        (not stranded in vm2 on the helper page table with IDT2), and
        the next call works."""
        machine, vm1, k1, vm2, k2, mech = mechanism
        cpu = machine.cpu

        def context():
            return (cpu.mode, cpu.ring, cpu.cr3, cpu.eptp, cpu.vm_name,
                    cpu.interrupts.idt, cpu.interrupts.interrupts_enabled)

        with cpu.trace.scoped(not fast):
            before = context()
            with pytest.raises(SimulationError, match="exceeds the shared"):
                mech.call_function(vm1, vm2, lambda _: b"x" * 90_000)
            assert context() == before
            assert mech.call(vm1, vm2, "getpid") == \
                mech.setup_pair(vm1, vm2).helpers["vm2"].pid

    def test_failing_remote_body_unwinds_to_caller(self):
        """A remote body that raises anything but a guest error (here a
        TypeError: ``getppid`` takes no arguments) unwinds through steps
        5-6 with no reply written, then re-raises: the CPU is back in
        vm1's kernel with the caller's CR3 and IDT, interrupts on.  Both
        tiers charge the same counters for the failing call, and the
        next call costs what it costs on a pair that never failed."""

        def run(traced: bool, fail: bool):
            machine, vm1, k1, vm2, k2 = build_two_vm_machine()
            cpu = machine.cpu
            cpu.trace.enabled = traced
            mech = CrossVMSyscallMechanism(machine)
            enter_vm_kernel(machine, vm1)
            mech.setup_pair(vm1, vm2)
            enter_vm_kernel(machine, vm1)
            executor = k2.spawn("executor")
            mech.call(vm1, vm2, "getppid", executor=executor)    # warm
            context = (cpu.mode, cpu.ring, cpu.cr3, cpu.eptp,
                       cpu.interrupts.idt)
            failed = None
            if fail:
                start = cpu.perf.snapshot()
                with pytest.raises(TypeError):
                    mech.call(vm1, vm2, "getppid", 1, 2, 3,
                              executor=executor)
                failed = start.delta(cpu.perf.snapshot())
                assert cpu.world_label == "K(vm1)"
                assert (cpu.mode, cpu.ring, cpu.cr3, cpu.eptp,
                        cpu.interrupts.idt) == context
                assert cpu.interrupts.idt is k1.idt
                assert cpu.interrupts.interrupts_enabled
            start = cpu.perf.snapshot()
            assert mech.call(vm1, vm2, "getppid",
                             executor=executor) == 0
            return failed, start.delta(cpu.perf.snapshot())

        untraced, after_untraced = run(traced=False, fail=True)
        traced, after_traced = run(traced=True, fail=True)
        _, clean = run(traced=False, fail=False)
        assert traced == untraced
        assert untraced.count("vmfunc_ept_switch") == 2
        assert after_untraced == after_traced == clean

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fused", "stepwise"])
    def test_oversized_request_unwinds_to_caller(self, mechanism, fast):
        """A request too large for the shared page is refused before
        step 2: the CPU never enters the helper context (no helper CR3,
        no IDT2, IF still on), nothing is charged, and the next call
        works."""
        machine, vm1, k1, vm2, k2, mech = mechanism
        cpu = machine.cpu

        def context():
            return (cpu.mode, cpu.ring, cpu.cr3, cpu.eptp, cpu.vm_name,
                    cpu.interrupts.idt, cpu.interrupts.interrupts_enabled)

        with cpu.trace.scoped(not fast):
            before = context()
            cycles = cpu.perf.cycles
            with pytest.raises(SimulationError, match="exceeds the shared"):
                mech.call(vm1, vm2, "write", 1, b"x" * 90_000)
            assert context() == before
            assert cpu.perf.cycles == cycles
            assert mech.call(vm1, vm2, "getpid") == \
                mech.setup_pair(vm1, vm2).helpers["vm2"].pid

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fused", "stepwise"])
    def test_callee_left_in_user_mode_faults_on_return(self, mechanism,
                                                       fast):
        """The return half starts with ``cli``, which needs CPL 0: a
        service that drops to ring 3 faults there in both tiers."""
        machine, vm1, k1, vm2, k2, mech = mechanism
        cpu = machine.cpu
        with cpu.trace.scoped(not fast):
            with pytest.raises(GeneralProtectionFault,
                               match="cli requires CPL 0, current CPL 3"):
                mech.call_function(vm1, vm2, lambda _: cpu.sysret())

    def test_call_counter(self, mechanism):
        machine, vm1, k1, vm2, k2, mech = mechanism
        state = mech.setup_pair(vm1, vm2)
        before = state.calls
        mech.call(vm1, vm2, "getppid")
        assert state.calls == before + 1

    def test_call_is_an_order_of_magnitude_cheaper_than_hypercall_path(
            self, mechanism):
        machine, vm1, k1, vm2, k2, mech = mechanism
        mech.call(vm1, vm2, "getppid")
        snap = machine.cpu.perf.snapshot()
        mech.call(vm1, vm2, "getppid")
        crossvm_cycles = snap.delta(machine.cpu.perf.snapshot()).cycles
        cm = machine.cost_model
        hypercall_roundtrip = 2 * (cm.vmexit.cycles + cm.vmexit_handle.cycles
                                   + cm.vmentry.cycles)
        assert crossvm_cycles < hypercall_roundtrip
