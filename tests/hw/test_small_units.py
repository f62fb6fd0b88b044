"""TLB, registers, IDT, perf counters, trace — small-unit tests."""

import pytest

from repro.errors import SimulationError
from repro.hw.costs import Cost
from repro.hw.idt import IDT, InterruptState
from repro.hw.perf import WORLD_SWITCH_KINDS, PerfCounters
from repro.hw.registers import (
    MSR_EPTP_LIST,
    MSR_WORLD_TABLE,
    RegisterFile,
)
from repro.hw.tlb import TLB
from repro.hw.trace import TransitionTrace


class TestTLB:
    def test_tagged_tlb_no_flush_on_cr3(self):
        tlb = TLB(tagged=True)
        assert not tlb.on_cr3_write(0x1000)
        assert not tlb.on_cr3_write(0x2000)
        assert tlb.full_flushes == 0
        assert tlb.context_switches == 2

    def test_untagged_tlb_flushes(self):
        tlb = TLB(tagged=False)
        tlb.on_cr3_write(0x1000)
        assert tlb.on_cr3_write(0x2000)
        assert tlb.full_flushes >= 1

    def test_same_cr3_not_a_switch(self):
        tlb = TLB()
        tlb.on_cr3_write(0x1000)
        switches = tlb.context_switches
        tlb.on_cr3_write(0x1000)
        assert tlb.context_switches == switches

    def test_ept_switch_tracked(self):
        tlb = TLB()
        tlb.on_ept_switch(0x9000)
        tlb.on_ept_switch(0xA000)
        assert tlb.context_switches == 2

    def test_explicit_flush_and_reset(self):
        tlb = TLB()
        tlb.flush_all()
        assert tlb.full_flushes == 1
        tlb.reset()
        assert tlb.full_flushes == 0


class TestRegisterFile:
    def test_read_write(self):
        regs = RegisterFile()
        regs.write("rdi", 42)
        assert regs.read("rdi") == 42

    def test_unknown_register(self):
        regs = RegisterFile()
        with pytest.raises(SimulationError):
            regs.read("xmm0")
        with pytest.raises(SimulationError):
            regs.write("bogus", 1)

    def test_msrs(self):
        regs = RegisterFile()
        assert regs.read_msr(MSR_EPTP_LIST) == 0
        regs.write_msr(MSR_WORLD_TABLE, 0xDEAD000)
        assert regs.read_msr(MSR_WORLD_TABLE) == 0xDEAD000

    def test_snapshot_restore(self):
        regs = RegisterFile()
        regs.write("rax", 1)
        regs.write("rip", 0x400000)
        snap = regs.snapshot()
        regs.write("rax", 99)
        regs.restore(snap)
        assert regs.read("rax") == 1
        assert regs.read("rip") == 0x400000


class TestIDT:
    def test_vectors(self):
        idt = IDT("t")
        called = []
        idt.set_vector(0x80, lambda v: called.append(v))
        assert 0x80 in idt
        handler = idt.handler(0x80)
        assert handler is not None
        handler(0x80)
        assert called == [0x80]

    def test_vector_range(self):
        idt = IDT()
        with pytest.raises(SimulationError):
            idt.set_vector(256, lambda v: None)

    def test_interrupt_state(self):
        state = InterruptState()
        assert state.interrupts_enabled
        state.disable()
        assert not state.interrupts_enabled
        state.enable()
        assert state.interrupts_enabled
        idt = IDT()
        state.install(idt)
        assert state.idt is idt

    def test_idt_ids_unique(self):
        assert IDT().idt_id != IDT().idt_id


class TestPerfCounters:
    def test_charge_accumulates(self):
        perf = PerfCounters()
        perf.charge("x", Cost(3, 10))
        perf.charge("x", Cost(2, 5))
        assert perf.instructions == 5
        assert perf.cycles == 15
        assert perf.events["x"] == 2

    def test_snapshot_delta(self):
        perf = PerfCounters()
        perf.charge("a", Cost(1, 1))
        snap = perf.snapshot()
        perf.charge("b", Cost(2, 4))
        delta = snap.delta(perf.snapshot())
        assert delta.instructions == 2
        assert delta.cycles == 4
        assert delta.events == {"b": 1}
        assert delta.count("b") == 1
        assert delta.count("missing") == 0

    def test_snapshot_immutable_wrt_future_charges(self):
        perf = PerfCounters()
        snap = perf.snapshot()
        perf.charge("a", Cost(1, 1))
        assert snap.cycles == 0

    def test_world_switches_property(self):
        perf = PerfCounters()
        snap = perf.snapshot()
        perf.charge("syscall_trap", Cost(0, 1))
        perf.charge("vmexit", Cost(0, 1))
        perf.charge("world_call", Cost(0, 1))
        perf.charge("copy", Cost(0, 1))       # not a switch
        assert snap.delta(perf.snapshot()).world_switches == 3

    def test_world_switch_classification_reuses_perf_kinds(self):
        """A batched charge counts its world switches by the same kind
        set: exits and entries are switches, IDT and CR3 loads are not."""
        kinds = ("vmexit", "vmentry", "idt_switch", "cr3_write")
        perf = PerfCounters()
        snap = perf.snapshot()
        perf.charge_batch(Cost(0, 1), dict.fromkeys(kinds, 1))
        expected = sum(1 for k in kinds if k in WORLD_SWITCH_KINDS)
        assert snap.delta(perf.snapshot()).world_switches == expected == 2

    def test_reset(self):
        perf = PerfCounters()
        perf.charge("a", Cost(1, 1))
        perf.reset()
        assert perf.cycles == 0 and not perf.events

    def test_microseconds(self):
        perf = PerfCounters()
        snap = perf.snapshot()
        perf.charge("a", Cost(0, 3400))
        assert snap.delta(perf.snapshot()).microseconds == pytest.approx(1.0)


class TestTransitionTrace:
    def test_record_and_query(self):
        trace = TransitionTrace()
        trace.record("syscall_trap", "U(vm1)", "K(vm1)")
        trace.record("vmexit", "K(vm1)", "K(host)", "hypercall")
        assert len(trace) == 2
        assert trace.kinds() == ["syscall_trap", "vmexit"]
        assert trace.count("vmexit") == 1
        assert trace[1].detail == "hypercall"

    def test_path_collapses_duplicates(self):
        trace = TransitionTrace()
        trace.record("a", "X", "Y")
        trace.record("b", "Y", "Y")
        trace.record("c", "Y", "Z")
        assert trace.path() == ["X", "Y", "Z"]

    def test_mark_and_since(self):
        trace = TransitionTrace()
        trace.record("a", "X", "Y")
        mark = trace.mark
        trace.record("b", "Y", "Z")
        events = trace.since(mark)
        assert [e.kind for e in events] == ["b"]
        assert trace.path(mark) == ["Y", "Z"]

    def test_disabled_trace_records_nothing(self):
        trace = TransitionTrace()
        trace.enabled = False
        assert trace.record("a", "X", "Y") is None
        assert len(trace) == 0

    def test_limit(self):
        trace = TransitionTrace(limit=2)
        for _ in range(5):
            trace.record("a", "X", "Y")
        assert len(trace) == 2

    def test_clear(self):
        trace = TransitionTrace()
        trace.record("a", "X", "Y")
        trace.clear()
        assert len(trace) == 0 and trace.mark == 0

    def test_filter_and_render(self):
        trace = TransitionTrace()
        trace.record("a", "X", "Y")
        trace.record("b", "Y", "X")
        assert len(trace.filter(lambda e: e.kind == "a")) == 1
        assert "X -> Y" in trace.render()
