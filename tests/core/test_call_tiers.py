"""Traced vs untraced CPUs on raw call sequences.

``tests/analysis/test_fastpath_equivalence.py`` holds traced and
untraced machines bit-identical on the paper's tables.  These cases
drive ``WorldCallRuntime.call`` and the Figure-4 cross-VM round trip
directly and mutate the machine between two hot bursts — an
evict/restore of the callee's entry, a revocation of the callee, a
non-executable remap of its entry page, a cleared EPTP slot — so the
caches of the untraced run (and the Figure-4 round trip's straight-line
halves) must notice the change exactly where the traced, step-by-step
run does.  After every call the results, the counters and the CPU's
architectural state must agree between the two.
"""

import math
import random

from repro import faults, observe
from repro.core import convention
from repro.core.crossvm import CrossVMSyscallMechanism
from repro.testbed import build_two_vm_machine, enter_vm_kernel

from tests.core.test_convention_roundtrip import _fields, _random_payload
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
    """12 calls, an optional mid-workload mutation, 12 more calls, with
    the transition trace off (``fast``) or on; returns (per-call
    records, (instructions, cycles, events), the caller's call-stack
    depth after each call)."""
    convention.clear_caches()
    machine, runtime, caller, callee = _build_worldcall_harness(
        lambda request: ("pong", request.payload))
    results = []
    depths = []
    with machine.cpu.trace.scoped(not fast):
        def record(payload):
            _record(machine, results,
                    lambda: runtime.call(caller, callee.wid, payload))
            depths.append(len(caller.call_stack))

        for i in range(12):
            record(("ping", i))
        if mutate is not None:
            mutate(machine, runtime, callee)
        for i in range(12):
            record(("ping", 100 + i))
    perf = machine.cpu.perf
    return (results, (perf.instructions, perf.cycles, dict(perf.events)),
            depths)


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
        slow = _run_sequence(False, _entry_page_not_executable)
        assert fast == slow
        assert fast[0][11][0] == ("pong", ("ping", 11)), fast[0][11]
        assert fast[0][12][0] == ("raised", "PageFault"), fast[0][12]
        assert fast[0][-1][0] == ("raised", "PageFault"), fast[0][-1]
        # A faulting call unwinds the caller frame it pushed, in both
        # tiers: the stack is empty after every call, faulting or not.
        assert fast[2] == slow[2] == [0] * 24


def _run_crossvm(fast, mutate=None):
    """Figure-4 round trips (``getpid``, ``readdir``, a remote errno, a
    reply too large for the shared page and a request too large for
    it), an optional mid-workload mutation, then the same again, with
    the transition trace off (``fast``: the straight-line halves) or
    on; returns the per-call records, the recoveries and the pair's
    completed VMFUNC round trips."""
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
                                        lambda _: b"x" * 90_000),
             lambda: mech.call(vm1, vm2, "write", 1, b"x" * 90_000)]
    with machine.cpu.trace.scoped(not fast):
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


class _SwitchRecorder:
    """A bus observer that keeps every ``ept_switch`` event."""

    def __init__(self):
        self.switches = []

    def on_event(self, event):
        if event.kind == "ept_switch":
            self.switches.append((event.to, event.detail, event.cycles))


def _crossvm_switches(fast, engine=None):
    recorder = _SwitchRecorder()
    with observe.scoped("audit", recorder), faults.scoped(engine):
        _run_crossvm(fast)
    return recorder.switches


class TestCrossVMTiers:
    def test_ept_switch_events_identical(self):
        """The straight-line halves publish each EPT switch with the
        cycles the step-by-step path has charged by then, so an audit
        record does not depend on which path ran: untraced, untraced
        under an inert fault engine (step by step) and traced agree."""
        straight = _crossvm_switches(True)
        # Two bursts of four rounds; each call switches there and back,
        # except the oversized request, which is refused before step 2.
        assert len(straight) == 2 * 4 * 4 * 2
        assert straight == _crossvm_switches(True, faults.FaultEngine([]))
        assert straight == _crossvm_switches(False)

    def test_roundtrip_identical(self):
        fast = _run_crossvm(True)
        assert fast == _run_crossvm(False)
        results = fast[0]
        assert results[1][0] and isinstance(results[1][0], list)
        assert results[2][0] == ("raised", "GuestOSError")
        assert results[3][0] == ("raised", "SimulationError")
        assert results[4][0] == ("raised", "SimulationError")
        assert results[5][0] == results[0][0]

    def test_peer_slot_cleared_mid_workload(self):
        fast = _run_crossvm(True, _clear_peer_slot)
        assert fast == _run_crossvm(False, _clear_peer_slot)
        results, recoveries, calls = fast
        # 16 degraded calls between two bursts of 12 VMFUNC round trips
        # (the oversized replies fail); the trap path has no shared
        # page, so its large replies go through.  An oversized request
        # is refused before the switch is tried, so it never degrades.
        assert recoveries == {"legacy_roundtrip": 16}, recoveries
        assert calls == 24, calls
        degraded = [r[0] for r in results[20:40]]
        assert degraded[3] == b"x" * 90_000
        assert degraded[4] == ("raised", "SimulationError")
        assert degraded[:3] == [r[0] for r in results[:3]]


def _crossvm_replies(fast, replies):
    """Each of ``replies`` returned by a remote function over the
    Figure-4 round trip, with the transition trace off (``fast``) or
    on; per reply, the result's fields (or the error type), the cycles
    the call charged and the CPU's architectural state afterwards."""
    convention.clear_caches()
    machine, vm1, k1, vm2, k2 = build_two_vm_machine()
    mech = CrossVMSyscallMechanism(machine)
    enter_vm_kernel(machine, vm1)
    mech.setup_pair(vm1, vm2)
    enter_vm_kernel(machine, vm1)
    records = []
    with machine.cpu.trace.scoped(not fast):
        for reply in replies:
            before = machine.cpu.perf.cycles
            try:
                outcome = repr(_fields(
                    mech.call_function(vm1, vm2, lambda _: reply)))
            except Exception as exc:  # noqa: BLE001 - compared
                outcome = ("raised", type(exc).__name__)
            records.append((outcome, machine.cpu.perf.cycles - before,
                            _arch_state(machine)))
    return records


class TestCrossVMReplyTiers:
    def test_random_replies_agree_traced_and_untraced(self):
        """Seeded replies mixing every marshaled type with values the
        wire cannot carry (non-finite floats, bare or nested): both
        halves return the same result or raise the same error, charge
        the same cycles and leave the CPU in the same world."""
        rng = random.Random(36)
        replies = [(math.nan,), math.nan, -math.inf] + \
            [_random_payload(rng) for _ in range(300)]
        fast = _crossvm_replies(True, replies)
        assert fast == _crossvm_replies(False, replies)
        assert fast[0][0] == fast[1][0] == ("raised", "SimulationError")
        assert all(state[4] == "vm1" and state[1] == 0
                   for _outcome, _cycles, state in fast)
        assert sum(outcome[0] == "raised"
                   for outcome, _cycles, _state in fast) > 10
