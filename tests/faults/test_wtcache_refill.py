"""WT/IWT cache-miss refill under injected incoherence (satellite of
the fault-injection PR): the hypervisor's ``manage_wtc`` refill must
make a flushed cache transparent — same results and bit-identical
:class:`~repro.hw.perf.PerfCounters` whether the CPU records its
transition trace or not — and translation memos must never survive a
mapping epoch bump."""

import pytest

from repro import faults
from repro.core import convention
from repro.errors import WorldTableCacheMiss
from repro.faults import FaultEngine, FaultPlan
from repro.faults.campaign import _WorldCallCell
from repro.faults.sites import SITES
from repro.hw import mem


def _run_flushed_sequence(traced: bool, ops: int = 3):
    """Build a fresh world-call cell and run ``ops`` calls with a WT/IWT
    cache flush injected on the middle one, with the transition trace on
    or (as the campaign cells run) off; returns (results, snapshot).
    """
    convention.clear_caches()
    try:
        cell = _WorldCallCell("ShadowContext", ())
        cell.cpu.trace.enabled = traced
        site = SITES["hw.wt_cache_incoherence"]
        plan = FaultPlan(site=site.name, schedule=(ops // 2,), budget=1)
        results = []
        with faults.scoped(FaultEngine([plan])) as engine:
            results.append(cell.operate(site))  # warm-up fills caches
            for index in range(ops):
                engine.begin_operation(index)
                results.append(cell.operate(site))
                engine.end_operation()
            assert engine.fired_counts() == {site.name: 1}
        return results, cell.cpu.perf.snapshot()
    finally:
        convention.clear_caches()


class TestRefillEquivalence:
    def test_refill_transparent_to_results(self):
        results, _ = _run_flushed_sequence(traced=True)
        assert len(set(map(repr, results))) == 1

    def test_slow_and_fastpath_counters_bit_identical(self):
        _, slow = _run_flushed_sequence(traced=True)
        _, fast = _run_flushed_sequence(traced=False)
        assert slow.instructions == fast.instructions
        assert slow.cycles == fast.cycles
        assert slow.events == fast.events

    def test_two_faulted_runs_bit_identical(self):
        _, first = _run_flushed_sequence(traced=False)
        _, second = _run_flushed_sequence(traced=False)
        assert first == second

    def test_refill_charges_wt_walk_and_manage_wtc(self):
        _, clean = _run_flushed_sequence(traced=False, ops=2)
        # same sequence but the flush scheduled past the end: no fire
        convention.clear_caches()
        try:
            cell = _WorldCallCell("ShadowContext", ())
            site = SITES["hw.wt_cache_incoherence"]
            plan = FaultPlan(site=site.name, schedule=(99,), budget=1)
            with faults.scoped(FaultEngine([plan])) as engine:
                cell.operate(site)
                for index in range(2):
                    engine.begin_operation(index)
                    cell.operate(site)
                    engine.end_operation()
            unfaulted = cell.cpu.perf.snapshot()
        finally:
            convention.clear_caches()
        # the faulted run pays extra wt walks + manage_wtc refills
        assert clean.events.get("wt_walk", 0) \
            > unfaulted.events.get("wt_walk", 0)
        assert clean.events.get("manage_wtc", 0) \
            > unfaulted.events.get("manage_wtc", 0)


class TestRawMissEscape:
    def test_miss_escapes_when_refill_policy_disabled(self):
        cell = _WorldCallCell("ShadowContext", ("legacy_fallback",))
        site = SITES["hw.wt_cache_incoherence"]
        cell.operate(site)  # warm the caches while refill still works
        cell.runtime.recovery.wtc_refill = False
        plan = FaultPlan(site=site.name, schedule=(0,), budget=1)
        with faults.scoped(FaultEngine([plan])) as engine:
            engine.begin_operation(0)
            with pytest.raises(WorldTableCacheMiss):
                cell.operate(site)
            engine.end_operation()
        # the failed transition still unwound the caller cleanly
        assert cell.state_ok()


class TestMappingEpochStaleness:
    def test_translation_memo_not_reused_across_epoch_bump(self):
        cell = _WorldCallCell("ShadowContext", ())
        cpu = cell.cpu
        gva = cell.caller.entry.pc
        before = cpu.translate(gva)
        epoch_before = mem.mapping_epoch()
        mem.bump_mapping_epoch()
        # the memoized walk must be revalidated, not reused
        after = cpu.translate(gva)
        assert after == before  # mapping itself did not change
        hit = [value for value in cpu._xlat_cache.values()
               if value[1] == (after & ~0xFFF)]
        assert any(entry[0] == epoch_before + 1 for entry in hit)

    def test_epoch_stale_site_recovers_and_stays_coherent(self):
        cell = _WorldCallCell("ShadowContext", ())
        site = SITES["hw.translation_epoch_stale"]
        clean = cell.operate(site)
        epoch_before = mem.mapping_epoch()
        plan = FaultPlan(site=site.name, schedule=(0,), budget=1)
        with faults.scoped(FaultEngine([plan])) as engine:
            engine.begin_operation(0)
            faulted = cell.operate(site)
            engine.end_operation()
        assert mem.mapping_epoch() > epoch_before
        assert repr(faulted) == repr(clean)
        # and the next clean call sees a coherent datapath
        assert repr(cell.operate(site)) == repr(clean)
        assert cell.state_ok()
