"""Session hooks over a live machine: span/trace agreement, per-vector
injection counts, deterministic snapshots, worker merge."""

import json

from repro import telemetry
from repro.analysis import experiments, parallel
from repro.telemetry import export
from repro.testbed import build_two_vm_machine, enter_vm_kernel
from repro.workloads.lmbench import LmbenchSuite


def _traced_proxos_call():
    """One warm Proxos-original NULL syscall inside a span; returns
    (session, span, trace events since the call's mark)."""
    session = telemetry.current()
    assert session is not None
    surface = experiments._surface_for("Proxos", optimized=False,
                                       keep_trace=True)
    machine = experiments._machine_of(surface)
    suite = LmbenchSuite(surface)
    suite.setup()
    suite.null_syscall()                        # warm
    trace = machine.cpu.trace
    mark = trace.mark
    with session.tracer.span("call", cpu=machine.cpu) as span:
        suite.null_syscall()
    return session, span, trace.since(mark)


class TestSpanTraceAgreement:
    def test_span_instants_reproduce_transition_order(self):
        with telemetry.scoped("t"):
            _, span, events = _traced_proxos_call()
        captured = list(span.iter_events())
        assert [e.seq for e in captured] == [e.seq for e in events]
        assert [e.name for e in captured] == [e.kind for e in events]
        assert [(e.args["frm"], e.args["to"]) for e in captured] \
            == [(e.frm, e.to) for e in events]

    def test_span_crossings_match_trace_path(self):
        with telemetry.scoped("t"):
            session, span, events = _traced_proxos_call()
        # Replaying the span instants must count the same crossings as
        # the flat trace path (the Figure-2 measurement).
        worlds = [events[0].frm]
        for e in events:
            if e.to != worlds[-1]:
                worlds.append(e.to)
        assert export.crossings_of_span(span) == len(worlds) - 1

    def test_span_modeled_clocks_bracket_the_call(self):
        with telemetry.scoped("t"):
            _, span, events = _traced_proxos_call()
        # Charges not tied to a boundary event (marshaling, copies) also
        # land inside the span, so its cycles bound the event cycles.
        assert span.cycles >= sum(e.cycles for e in events)
        assert span.instructions is not None and span.instructions > 0
        assert span.end_seq - span.start_seq == len(events)


class TestHooks:
    def test_world_switch_counter_matches_trace(self):
        from repro.hw.perf import WORLD_SWITCH_KINDS

        with telemetry.scoped("t") as session:
            _, _, events = _traced_proxos_call()
        switches = session.metrics.counter("trace.world_switches").value
        assert switches > 0
        # The registry saw every switch the machine ever recorded
        # (setup + warm + measured), so it is at least the measured set.
        assert switches >= sum(1 for e in events
                               if e.kind in WORLD_SWITCH_KINDS)

    def test_injector_per_vector_counts(self):
        from repro.hypervisor.injection import VECTOR_SYSCALL_REDIRECT
        from repro.systems import ShadowContext

        with telemetry.scoped("t") as session:
            machine, vm1, k1, vm2, k2 = build_two_vm_machine()
            system = ShadowContext(machine, vm1, vm2, optimized=False)
            enter_vm_kernel(machine, vm1)
            system.setup()
            enter_vm_kernel(machine, vm1)
            for _ in range(3):
                system.redirect_syscall("getppid")
        injector = machine.hypervisor.injector
        assert injector.injected_by_vector[VECTOR_SYSCALL_REDIRECT] == 3
        counted = session.metrics.counter(
            "hypervisor.virq_injected",
            vector=f"{VECTOR_SYSCALL_REDIRECT:#04x}", vm=vm2.name).value
        assert counted == 3

    def test_injector_counts_without_session(self):
        from repro.hypervisor.injection import VECTOR_SYSCALL_REDIRECT
        from repro.systems import ShadowContext

        assert not telemetry.enabled()
        machine, vm1, k1, vm2, k2 = build_two_vm_machine()
        system = ShadowContext(machine, vm1, vm2, optimized=False)
        enter_vm_kernel(machine, vm1)
        system.setup()
        enter_vm_kernel(machine, vm1)
        system.redirect_syscall("getppid")
        assert (machine.hypervisor.injector
                .injected_by_vector[VECTOR_SYSCALL_REDIRECT] == 1)

    def test_system_redirect_spans_and_counters(self):
        with telemetry.scoped("t") as session:
            surface = experiments._surface_for("Tahoma", optimized=True,
                                               keep_trace=True)
            suite = LmbenchSuite(surface)
            suite.setup()
            suite.null_syscall()
        redirects = session.metrics.counter(
            "system.redirects", system="Tahoma", variant="optimized").value
        assert redirects > 0
        names = [s.name for s in session.tracer.iter_spans()]
        assert "Tahoma.redirect" in names


class TestDeterminism:
    def _run(self):
        with telemetry.scoped("snapshot-run") as session:
            surface = experiments._surface_for("Proxos", optimized=False,
                                               keep_trace=True)
            suite = LmbenchSuite(surface)
            suite.setup()
            for _ in range(3):
                suite.null_syscall()
        return export.metrics_snapshot(session)

    def test_metrics_snapshot_identical_across_runs(self):
        first, second = self._run(), self._run()
        assert first == second
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))


class TestWorkerMerge:
    def test_parallel_cells_ship_sessions_back(self):
        specs = experiments.table4_specs(iterations=1)[:2]
        with telemetry.scoped("sweep") as session:
            cells = parallel.run_cells(specs, workers=2)
        assert all(c.telemetry is not None for c in cells)
        # Worker-side counters merged into the parent registry (the
        # Proxos cell redirects; trace-off cells still count redirects).
        assert session.metrics.counter("system.redirects", system="Proxos",
                                       variant="original").value > 0

    def test_pool_and_serial_merge_identically(self):
        specs = experiments.table4_specs(iterations=1)[:2]
        with telemetry.scoped("serial") as serial:
            parallel.run_cells(specs, workers=1)
        with telemetry.scoped("pool") as pool:
            parallel.run_cells(specs, workers=2)
        s = export.metrics_snapshot(serial)
        p = export.metrics_snapshot(pool)
        assert s["counters"] == p["counters"]
        assert s["histograms"] == p["histograms"]

    def test_results_unchanged_under_telemetry(self):
        plain = experiments.table4_cell("Proxos", False, 1)
        with telemetry.scoped("t"):
            traced = experiments.table4_cell("Proxos", False, 1)
        assert plain == traced
