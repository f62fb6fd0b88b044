"""Stepwise oracle vs fused fast path on raw call sequences.

``tests/analysis/test_fastpath_equivalence.py`` holds the two tiers
bit-identical on the paper's tables.  These cases drive
``WorldCallRuntime.call`` and the Figure-4 cross-VM round trip
directly and mutate the machine between two hot bursts — an
evict/restore of the callee's entry, a revocation of the callee, a
non-executable remap of its entry page, a cleared EPTP slot — so the
fast path's caches must notice the change exactly where the
step-by-step path does.  After every call the results, the counters
and the CPU's architectural state must agree between the tiers.
"""

from repro.core import convention, fastpath
from repro.core.crossvm import CrossVMSyscallMechanism
from repro.testbed import build_two_vm_machine, enter_vm_kernel

from tests.core.test_marshal_hoist import _build_worldcall_harness


def _arch_state(machine):
    """The CPU's architectural state after a call.

    CR3 roots and EPTPs come from process-wide allocators, so two
    machines built one after the other differ by a constant offset;
    they are taken relative to the machine's first page table and
    first EPT.
    """
    cpu = machine.cpu
    first_eptp = min(vm.ept.eptp for vm in machine.hypervisor.vms.values())
    idt = cpu.interrupts.idt
    return (cpu.mode, cpu.ring, cpu.cr3 - machine.host_page_table.root,
            cpu.eptp - first_eptp if cpu.ept is not None else None,
            cpu.vm_name, idt.label if idt is not None else None,
            cpu.interrupts.interrupts_enabled,
            cpu.tlb.context_switches, cpu.tlb.full_flushes,
            cpu.regs.snapshot())


def _record(machine, results, call):
    """Run ``call`` and append its outcome, the counters and the
    architectural state to ``results``."""
    try:
        outcome = call()
    except Exception as exc:  # noqa: BLE001 - compared
        outcome = ("raised", type(exc).__name__)
    perf = machine.cpu.perf
    results.append((outcome, perf.instructions, perf.cycles,
                    dict(perf.events), _arch_state(machine)))


def _run_sequence(fast, mutate=None):
    """12 calls, an optional mid-workload mutation, 12 more calls;
    returns (per-call records, (instructions, cycles, events))."""
    convention.clear_caches()
    machine, runtime, caller, callee = _build_worldcall_harness(
        lambda request: ("pong", request.payload))
    results = []
    with fastpath.scoped(fast), machine.cpu.trace.scoped(False):
        def record(payload):
            _record(machine, results,
                    lambda: runtime.call(caller, callee.wid, payload))

        for i in range(12):
            record(("ping", i))
        if mutate is not None:
            mutate(machine, runtime, callee)
        for i in range(12):
            record(("ping", 100 + i))
    perf = machine.cpu.perf
    return results, (perf.instructions, perf.cycles, dict(perf.events))


def _evict_and_restore(machine, runtime, callee):
    entry = machine.world_table.evict(callee.wid)
    assert entry is not None
    machine.world_table.restore_entry(entry)


def _revoke(machine, runtime, callee):
    runtime.registry.destroy(callee)


def _entry_page_not_executable(machine, runtime, callee):
    """Remap the page holding the callee's entry point without execute
    permission: the next ``world_call`` must fault on the entry-point
    walk, memoized or not."""
    table, pc = callee.entry.page_table, callee.entry.pc
    pte = table.entry(pc)
    table.map(pc & ~0xFFF, pte.gpa, writable=pte.writable, user=pte.user,
              executable=False)


class TestWorldCallTiers:
    def test_roundtrip_identical(self):
        assert _run_sequence(True) == _run_sequence(False)

    def test_table_mutation_mid_workload(self):
        assert (_run_sequence(True, _evict_and_restore)
                == _run_sequence(False, _evict_and_restore))

    def test_revocation_between_hot_calls(self):
        fast = _run_sequence(True, _revoke)
        assert fast == _run_sequence(False, _revoke)
        assert fast[0][-1][0] == ("raised", "NoSuchWorld"), fast[0][-1]

    def test_entry_page_remapped_non_executable(self):
        fast = _run_sequence(True, _entry_page_not_executable)
        assert fast == _run_sequence(False, _entry_page_not_executable)
        assert fast[0][11][0] == ("pong", ("ping", 11)), fast[0][11]
        assert fast[0][12][0] == ("raised", "PageFault"), fast[0][12]
        assert fast[0][-1][0] == ("raised", "PageFault"), fast[0][-1]


def _run_crossvm(fast, mutate=None):
    """Figure-4 round trips (``getpid``, ``readdir``, a remote errno and
    a reply too large for the shared page), an optional mid-workload
    mutation, then the same again; returns the per-call records, the
    recoveries and the pair's completed VMFUNC round trips."""
    convention.clear_caches()
    machine, vm1, k1, vm2, k2 = build_two_vm_machine()
    mech = CrossVMSyscallMechanism(machine)
    enter_vm_kernel(machine, vm1)
    mech.setup_pair(vm1, vm2)
    enter_vm_kernel(machine, vm1)
    results = []
    calls = [lambda: mech.call(vm1, vm2, "getpid"),
             lambda: mech.call(vm1, vm2, "readdir", "/"),
             lambda: mech.call(vm1, vm2, "open", "/no/such/file", "r"),
             lambda: mech.call_function(vm1, vm2,
                                        lambda _: b"x" * 90_000)]
    with fastpath.scoped(fast), machine.cpu.trace.scoped(False):
        def burst():
            for _ in range(4):
                for call in calls:
                    _record(machine, results, call)

        burst()
        if mutate is not None:
            mutate(machine, vm2)
            burst()
            mutate(machine, vm2, restore=True)
        burst()
    return results, dict(mech.recoveries), mech.setup_pair(vm1, vm2).calls


def _clear_peer_slot(machine, vm, restore=False):
    """Empty the peer's EPTP-list slot (VMFUNC into it faults and the
    call degrades to the trap-based round trip), or put it back."""
    directory = machine.hypervisor.eptp_directory
    if restore:
        directory.set(vm.vm_id, vm.ept)
    else:
        directory.clear(vm.vm_id)


class TestCrossVMTiers:
    def test_roundtrip_identical(self):
        fast = _run_crossvm(True)
        assert fast == _run_crossvm(False)
        results = fast[0]
        assert results[1][0] and isinstance(results[1][0], list)
        assert results[2][0] == ("raised", "GuestOSError")
        assert results[3][0] == ("raised", "SimulationError")
        assert results[4][0] == results[0][0]

    def test_peer_slot_cleared_mid_workload(self):
        fast = _run_crossvm(True, _clear_peer_slot)
        assert fast == _run_crossvm(False, _clear_peer_slot)
        results, recoveries, calls = fast
        # 16 degraded calls between two bursts of 12 VMFUNC round trips
        # (the oversized replies fail); the trap path has no shared
        # page, so its large replies go through.
        assert recoveries == {"legacy_roundtrip": 16}, recoveries
        assert calls == 24, calls
        degraded = [r[0] for r in results[16:32]]
        assert degraded[3] == b"x" * 90_000
        assert degraded[:3] == [r[0] for r in results[:3]]
