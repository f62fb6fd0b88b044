"""Fused charging: one batched ``(cost, events)`` charge must equal
charging the same primitives one by one."""

import pytest

from repro.core.crossvm import (_batch, _enter_charge, _enter_fault_charge,
                                _return_charge)
from repro.hw.costs import Cost, DEFAULT_COST_MODEL
from repro.hw.perf import PerfCounters

CM = DEFAULT_COST_MODEL


class TestChargeBatch:
    def test_batch_equals_sequential_charges(self):
        copy32 = DEFAULT_COST_MODEL.copy(32)
        seq = PerfCounters()
        seq.charge("syscall_trap", DEFAULT_COST_MODEL.syscall_trap)
        seq.charge("sysret", DEFAULT_COST_MODEL.sysret)
        seq.charge("copy", copy32)
        seq.charge("copy", copy32)
        batch = PerfCounters()
        total = (DEFAULT_COST_MODEL.syscall_trap + DEFAULT_COST_MODEL.sysret
                 + copy32 + copy32)
        batch.charge_batch(total, {"syscall_trap": 1, "sysret": 1,
                                   "copy": 2})
        assert seq.instructions == batch.instructions
        assert seq.cycles == batch.cycles
        assert dict(seq.events) == dict(batch.events)

    def test_batch_accumulates_existing_events(self):
        perf = PerfCounters()
        perf.charge("vmexit", DEFAULT_COST_MODEL.vmexit)
        perf.charge_batch(Cost(1, 2), {"vmexit": 2})
        assert perf.events["vmexit"] == 3


class TestFuse:
    """The Figure-4 round trip's batch builder."""

    def test_fuse_sums_costs_and_counts(self):
        cost, events = _batch(CM, (("cr3_write", 1), ("int_toggle", 2),
                                   ("idt_switch", 1)))
        assert cost == CM.cr3_write + CM.int_toggle.scaled(2) + CM.idt_switch
        assert events == {"cr3_write": 1, "int_toggle": 2, "idt_switch": 1}

    def test_apply_with_extra_cost(self):
        """Copies ride on the fixed part: each adds its own cost and
        one ``copy`` event; no copies, no ``copy`` event."""
        fixed, _ = _batch(CM, (("int_toggle", 2),))
        cost, events = _batch(CM, (("int_toggle", 2),), 160, 3)
        assert cost == fixed + CM.copy(160) + CM.copy(3)
        assert events == {"int_toggle": 2, "copy": 2}
        perf = PerfCounters()
        perf.charge_batch(cost, events)
        assert perf.cycles == cost.cycles
        assert "copy" not in _batch(CM, (("int_toggle", 2),))[1]


class TestShapes:
    @pytest.mark.parametrize("install", [True, False])
    def test_crossvm_enter_idt_variants(self, install):
        """The enter half always installs IDT2 and switches once; when
        the switch faults the unwind charges no switch and restores the
        saved IDT only if there was one."""
        _, events, _ = _enter_charge(CM, 8)
        assert events["idt_switch"] == 1
        assert events["vmfunc_ept_switch"] == 1
        _, events = _enter_fault_charge(CM, install, 8)
        assert events["idt_switch"] == (2 if install else 1)
        assert "vmfunc_ept_switch" not in events

    def test_switch_cycles_are_the_step_by_step_prefix(self):
        """Each half's memo entry carries what the step-by-step path has
        charged when it publishes the EPT switch: for the enter half
        everything but the ``sti`` and the request read-back, for the
        return half the reply write, the ``cli`` and the VMFUNC."""
        cost, _, switch = _enter_charge(CM, 8)
        assert switch == cost.cycles - CM.int_toggle.cycles \
            - CM.copy(8).cycles
        assert switch == (CM.cr3_write + CM.int_toggle + CM.idt_switch
                          + CM.copy(160) + CM.copy(4 + 8)
                          + CM.vmfunc_ept_switch).cycles
        _, _, switch = _return_charge(CM, True, 4 + 9, 9)
        assert switch == (CM.copy(4 + 9) + CM.int_toggle
                          + CM.vmfunc_ept_switch).cycles
        _, _, switch = _return_charge(CM, False)
        assert switch == (CM.int_toggle + CM.vmfunc_ept_switch).cycles
