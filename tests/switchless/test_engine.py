"""Engine-level tests: hot/cold scheduling determinism, the cost
model's hot-call advantage, unflipped-engine dormancy (bit-identical
counters), stats merging, and the mechanism seam's error cases."""

import pytest

from repro import switchless as sl
from repro.errors import ConfigurationError
from repro.switchless import STAT_FIELDS, SwitchlessEngine, SwitchlessStats
from repro.switchless.campaign import run_switchless_cell
from repro.testbed import WorldPair
from repro.switchless.policy import WINDOW_CYCLES


@pytest.fixture(autouse=True)
def _no_leftover_engine():
    assert sl._engine is None
    yield
    assert sl._engine is None


def _run_harness(engine, bursts=((50, 200_000), (50, 200_000))):
    """Replay a fixed burst/idle schedule with ``engine`` installed
    (or None); returns (cycles spent inside calls, final perf snapshot).
    """
    from repro.core import convention

    convention.clear_caches()
    with sl.scoped(engine):
        harness = WorldPair()
        spent = 0
        for burst, idle in bursts:
            for _ in range(burst):
                spent += harness.null_call()
            harness.idle(idle)
        return spent, harness.cpu.perf.snapshot()


class TestScheduling:
    def test_same_schedule_same_stats(self):
        runs = []
        for _ in range(2):
            engine = SwitchlessEngine(force=True)
            cycles, _snap = _run_harness(engine)
            runs.append((cycles, engine.stats.to_dict()))
        assert runs[0] == runs[1]

    def test_hot_and_cold_partition_calls(self):
        engine = SwitchlessEngine(force=True)
        _run_harness(engine)
        stats = engine.stats
        assert stats.calls == 100
        assert stats.hot_calls + stats.cold_calls == stats.calls
        assert stats.hot_calls > stats.cold_calls   # bursts run hot
        # Long idle gaps park the worker: each burst restart is cold.
        assert stats.cold_calls >= 1
        assert stats.wakeups >= 1

    def test_hot_call_beats_world_call(self):
        """Once the one-time ring setup amortizes, the switchless
        transport must model cheaper than world_call on the identical
        schedule (bursts sized like the campaign's)."""
        schedule = ((200, 200_000), (200, 200_000))
        engine = SwitchlessEngine(force=True)
        switchless_cycles, _ = _run_harness(engine, schedule)
        world_cycles, _ = _run_harness(None, schedule)
        assert switchless_cycles < world_cycles

    def test_worker_count_does_not_change_cycles(self):
        """One hot site: extra worker contexts stay idle, so modeled
        cycles are identical at 1/2/4 workers."""
        totals = set()
        for workers in (1, 2, 4):
            engine = SwitchlessEngine(force=True, workers=workers)
            cycles, _ = _run_harness(engine)
            totals.add(cycles)
        assert len(totals) == 1


class TestObserveDormancy:
    def test_observe_mode_counters_bit_identical(self):
        """An installed adaptive engine whose policy never flips must
        not perturb a single simulated number: cycles, instructions, or
        any event count."""
        _, bare = _run_harness(None)
        engine = SwitchlessEngine()
        _, observed = _run_harness(engine)
        assert observed.cycles == bare.cycles
        assert observed.instructions == bare.instructions
        assert observed.events == bare.events
        # ... while still watching every dispatch.
        assert engine.policy.sites
        assert len(engine.policy.sites) == 1
        assert not engine.policy.flips
        assert engine.stats.calls == 0


class TestAdaptiveRouting:
    def test_flipped_site_routes_through_the_ring(self):
        """Once the policy flips a hot site at a window boundary, every
        later call on it is served by the ring, not by world_call."""
        from repro.core import convention

        convention.clear_caches()
        engine = SwitchlessEngine()
        with sl.scoped(engine):
            harness = WorldPair()
            for _ in range(50):
                harness.null_call()
            assert engine.stats.calls == 0
            harness.idle(WINDOW_CYCLES + 1)
            for _ in range(25):
                harness.null_call()
        assert engine.stats.flips_to_switchless == 1
        assert engine.stats.calls == 25


class TestStatsAndConfig:
    def test_stat_fields_round_trip(self):
        stats = SwitchlessStats()
        assert stats.to_dict() == {name: 0 for name in STAT_FIELDS}
        for value, name in enumerate(STAT_FIELDS):
            setattr(stats, name, value)
        assert list(stats.to_dict().items()) == [
            (name, value) for value, name in enumerate(STAT_FIELDS)]

    def test_fewer_than_one_worker_rejected(self):
        with pytest.raises(ConfigurationError):
            SwitchlessEngine(workers=0)

    def test_install_uninstall(self):
        engine = sl.install(SwitchlessEngine())
        try:
            assert sl.enabled()
            assert sl.current() is engine
        finally:
            sl.uninstall()
        assert not sl.enabled()
        assert sl.current() is None

    def test_scoped_none_suspends_the_outer_engine(self):
        outer = SwitchlessEngine()
        with sl.scoped(outer):
            with sl.scoped(None) as inner:
                assert inner is None
                assert sl.current() is None
            assert sl.current() is outer
        assert sl.current() is None


class TestMechanismSeam:
    def test_switchless_without_engine_raises(self):
        from repro.core import convention

        convention.clear_caches()
        harness = WorldPair()
        with pytest.raises(ConfigurationError):
            harness.runtime.call(harness.caller, harness.callee.wid,
                                 ("getppid",), authorize=False,
                                 mechanism="switchless")

    def test_unknown_mechanism_rejected(self):
        from repro.core import convention

        convention.clear_caches()
        harness = WorldPair()
        with pytest.raises(ConfigurationError):
            harness.runtime.call(harness.caller, harness.callee.wid,
                                 ("getppid",), authorize=False,
                                 mechanism="sideways")

    def test_explicit_mechanisms_agree_on_results(self):
        from repro.core import convention

        convention.clear_caches()
        harness = WorldPair()
        via_world = harness.runtime.call(
            harness.caller, harness.callee.wid, ("getppid",),
            authorize=False, mechanism="world_call")
        engine = SwitchlessEngine(force=True)
        with sl.scoped(engine):
            via_ring = harness.runtime.call(
                harness.caller, harness.callee.wid, ("getppid",),
                authorize=False, mechanism="switchless")
        assert via_world == via_ring
        assert engine.stats.calls == 1

    def test_cell_runner_validates_names(self):
        with pytest.raises(ValueError):
            run_switchless_cell("no-such-workload", "world_call", 0)
        with pytest.raises(ValueError):
            run_switchless_cell("bursty", "no-such-mechanism", 0)
