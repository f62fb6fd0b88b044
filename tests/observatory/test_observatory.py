"""Behavior tests for the observatory core: clock, sampling,
conservation, event taps, and determinism across pool workers."""

import json

import pytest

from repro import observatory, telemetry
from repro.hw.costs import Cost
from repro.hw.perf import PerfCounters
from repro.observe import Event


class TestClockAndWindows:
    def test_dormant_counters_never_call_the_boundary(self):
        perf = PerfCounters()
        for _ in range(100):
            perf.charge("x", Cost(1, 10 ** 9))
        assert perf._obs is None  # sentinel survived a 100-gigacycle run

    def test_adopted_counter_fills_windows_on_the_modeled_clock(self):
        with observatory.scoped() as obs:
            perf = PerfCounters()
            assert perf._obs is obs
            for _ in range(10):
                perf.charge("x", Cost(1, 30_000))
            # Boundaries fired at 120k and 240k; the 60k-cycle tail is
            # still pending until the scoped exit flushes it.
            assert obs.clock == 240_000
            assert obs.store.window_count() == 2
        assert obs.clock == 300_000
        assert obs.store.window_count() == 3

    def test_one_big_charge_lands_in_the_open_window(self):
        with observatory.scoped() as obs:
            perf = PerfCounters()
            perf.charge("x", Cost(1, 550_000))   # jumps 5 windows at once
        # The whole delta belongs to the window open when the activity
        # started (no retroactive smearing).
        windows = obs.store.to_windows()
        assert [w["index"] for w in windows] == [0]
        assert windows[0]["cycles"] == 550_000
        assert obs.clock == 550_000

    def test_second_machine_extends_the_clock(self):
        with observatory.scoped() as obs:
            first = PerfCounters()
            first.charge("x", Cost(1, 150_000))
            second = PerfCounters()   # fresh cycle domain, same axis
            second.charge("x", Cost(1, 120_000))
        assert obs.clock == 270_000

    def test_reset_reanchors_instead_of_rewinding(self):
        with observatory.scoped() as obs:
            perf = PerfCounters()
            perf.charge("x", Cost(1, 70_000))
            perf.reset()
            perf.charge("x", Cost(1, 70_000))
        assert obs.clock == 140_000

    def test_uninstall_disarms_the_counter(self):
        with observatory.scoped() as obs:
            perf = PerfCounters()
            assert perf._obs is obs
        perf.charge("x", Cost(1, observatory.DEFAULT_WINDOW_CYCLES * 3))
        assert perf._obs is None
        assert perf._obs_next == observatory._OBS_DISABLED

    def test_flush_is_idempotent(self):
        with observatory.scoped() as obs:
            perf = PerfCounters()
            perf.charge("x", Cost(1, 30_000))
        before = obs.store.to_windows()
        obs.flush()
        obs.flush()
        assert obs.store.to_windows() == before


class TestConservation:
    def _run(self, charges):
        with telemetry.scoped("t") as session:
            with observatory.scoped() as obs:
                perf = PerfCounters()
                counter = session.metrics.counter("unit.calls")
                for cycles in charges:
                    counter.inc()
                    perf.charge("x", Cost(1, cycles))
            payload = obs.to_dict()
        return payload

    def test_window_deltas_sum_to_flat_totals(self):
        payload = self._run([30_000] * 17)
        assert payload["crosscheck"]["ok"], payload["crosscheck"]
        summed = sum(w["counters"].get("unit.calls", 0)
                     for w in payload["windows"])
        assert summed == payload["totals"]["unit.calls"] == 17

    def test_partial_final_window_is_flushed(self):
        payload = self._run([30_000])   # never crosses a boundary
        assert payload["crosscheck"]["ok"]
        assert payload["totals"]["unit.calls"] == 1
        assert len(payload["windows"]) == 1

    def test_baseline_absorbs_preexisting_counts(self):
        with telemetry.scoped("t") as session:
            session.metrics.counter("unit.calls").inc(10)
            with observatory.scoped() as obs:
                session.metrics.counter("unit.calls").inc(2)
                PerfCounters().charge("x", Cost(1, 10_000))
            payload = obs.to_dict()
        assert payload["baseline"]["unit.calls"] == 10
        assert payload["totals"]["unit.calls"] == 12
        assert payload["crosscheck"]["ok"]

    def test_source_swap_treats_new_session_as_zero(self):
        # run_switchless_cell swaps the engine mid-recording; the
        # sampling must not produce negative deltas when a source's
        # identity changes.
        with observatory.scoped() as obs:
            with telemetry.scoped("a") as first:
                first.metrics.counter("unit.calls").inc(5)
                PerfCounters().charge("x", Cost(1, 100_000))
            with telemetry.scoped("b") as second:
                second.metrics.counter("unit.calls").inc(3)
                PerfCounters().charge("x", Cost(1, 100_000))
                obs.flush()   # while the live source is installed
        total = sum(w["counters"].get("unit.calls", 0)
                    for w in obs.store.to_windows())
        assert total == 8
        assert all(delta > 0
                   for w in obs.store.to_windows()
                   for delta in w["counters"].values())


class TestEventTaps:
    def test_world_call_cycles_histogram_feeds_windows(self, crossover_two_vms):
        machine, vm1, k1, vm2, k2 = crossover_two_vms
        from repro.core.call import WorldCallRuntime
        from repro.core.world import WorldRegistry
        from repro.testbed import enter_vm_kernel
        registry = WorldRegistry(machine)
        runtime = WorldCallRuntime(machine, registry)
        enter_vm_kernel(machine, vm1)
        caller = registry.create_kernel_world(k1)
        enter_vm_kernel(machine, vm2)
        callee = registry.create_kernel_world(
            k2, handler=lambda request: "ok")
        enter_vm_kernel(machine, vm1)
        machine.cpu.write_cr3(k1.master_page_table)
        with telemetry.scoped("t"):
            with observatory.scoped() as obs:
                for _ in range(10):
                    assert runtime.call(caller, callee.wid) == "ok"
            payload = obs.to_dict()
        hists = {}
        for window in payload["windows"]:
            for key, data in window["histograms"].items():
                hists[key] = hists.get(key, 0) + data["count"]
        assert hists.get("world_call.cycles") == 10
        assert payload["crosscheck"]["ok"]

    def test_fault_injection_appears_on_the_timeline(self):
        from repro import faults
        from repro.faults.engine import FaultEngine
        from repro.faults.plan import FaultPlan
        engine = FaultEngine(
            [FaultPlan(site="core.callee_stall", schedule=(0,))])
        with observatory.scoped() as obs:
            with faults.scoped(engine):
                engine.begin_operation(0)
                with pytest.raises(Exception):
                    engine.fire("core.call.handler")
                engine.end_operation()
        events = obs.store.to_events()
        assert any(e["kind"] == "fault.injected"
                   and e["label"] == "core.callee_stall" for e in events)

    def test_audit_denial_appears_on_the_timeline(self):
        from repro import audit
        from repro.audit.recorder import FlightRecorder
        with observatory.scoped() as obs:
            with audit.scoped(FlightRecorder("t")) as recorder:
                recorder.on_event(Event("core", "authorization",
                                        decision="deny", detail="wid 9"))
                assert recorder.stats()["denials"] == 1
        events = obs.store.to_events()
        assert any(e["kind"] == "audit.anomaly" for e in events)


class TestParallelDeterminism:
    SPECS = [("table4", ("Proxos", True, 1)),
             ("switchlesscell", ("bursty", "adaptive", 11, 2))]

    def _record(self, workers):
        from repro.analysis import parallel
        from repro.core import convention
        from repro.switchless import campaign  # noqa: F401
        convention.clear_caches()
        telemetry.install(telemetry.TelemetrySession.lightweight("t"))
        try:
            with observatory.scoped() as obs:
                parallel.run_cells(list(self.SPECS), workers=workers)
        finally:
            telemetry.uninstall()
        return obs.cells

    def test_cells_byte_identical_across_worker_counts(self):
        serial = self._record(1)
        pooled = self._record(2)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(pooled, sort_keys=True)
        assert all(cell["crosscheck"]["ok"] for cell in serial)

    def test_bursty_flip_event_lands_in_its_cycle_window(self):
        cells = self._record(1)
        cell = next(c for c in cells if c["runner"] == "switchlesscell")
        flips = [e for e in cell["events"]
                 if e["kind"] == "switchless.flip"]
        assert flips, "adaptive bursty cell must flip"
        window_cycles = cell["config"]["window_cycles"] \
            if "config" in cell else observatory.DEFAULT_WINDOW_CYCLES
        for flip in flips:
            assert flip["window"] == flip["cycles"] // window_cycles
        # Cross-validate against the policy's own flip log.
        policy = cell["value"]["switchless.policy"] \
            if isinstance(cell.get("value"), dict) else None
        if policy:
            assert len(flips) == len(policy["flips"])
