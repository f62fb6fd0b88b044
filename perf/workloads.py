"""The five benchmark workloads.

Each workload calls only public functions of the ``repro`` layers.  A
workload object is built once per process: :meth:`Workload.setup`
does the untimed preparation (imports, warm-up, machines that live for
the whole run) and :meth:`Workload.round` runs one round, timing each
unit of work through a :class:`timing.Units`.  A round returns plain
data:

``ops``       one record per operation group: ``id``, ``n`` (operations
              it stands for), ``digests`` of its modeled outputs by key,
              ``any_seed`` (the keys whose output does not depend on
              ``--seed``), ``failed`` (operations a check inside the
              round failed) and ``error``;
``work_ops``  operations completed by the units of ``work_units``;
``extra``     the workload's own metrics (host percentiles, modeled
              values);
``layer``     counters the traced run reports per layer.

The policy layers (``jit``, ``switchless`` as an installed engine,
``faults``) stay at their defaults, so the benchmark times the tier
users run.
"""

from __future__ import annotations

import contextlib
import time
import traceback
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from golden import digest
from timing import Units

clock = time.perf_counter_ns

#: The fleet transports, in the order the fleet campaign runs them.
MECHANISMS = ("baseline", "world_call", "switchless")


def percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (``0 < p <= 100``):
    p99 of 10,000 samples has exactly 100 samples above it."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = -(-len(sorted_values) * p // 100)          # ceil(n * p / 100)
    return sorted_values[max(0, int(rank) - 1)]


def _error(exc: BaseException) -> str:
    traceback.print_exc()
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """Common plumbing: the tracer hooks."""

    name = ""
    #: Rounds a run measures at the least, whatever ``--seconds`` says.
    min_rounds = 1
    #: Unit kinds whose time ``ops_per_s`` divides ``work_ops`` by.
    work_units: Tuple[str, ...] = ()
    #: Unit kinds timed as per-round set-up; empty when set-up is timed
    #: from process start to the first round instead.
    setup_units: Tuple[str, ...] = ()

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        """Untimed preparation before the first round."""

    def round(self, units: Units) -> Dict[str, Any]:
        raise NotImplementedError

    @contextlib.contextmanager
    def traced_round(self) -> Iterator[None]:
        """In a traced run, the round's root span; the wrappers come off
        when it ends, so the correctness checks that follow are not
        traced."""
        if self.tracer is None:
            yield
            return
        with self.tracer.span("round"):
            yield
        self.tracer.uninstall()

    def mark(self, op: Any) -> None:
        """Tag the spans that follow with the current operation's id."""
        if self.tracer is not None:
            self.tracer.op = op


# ---------------------------------------------------------------------------
# tables / observed: the paper's Table 4 and Table 5
# ---------------------------------------------------------------------------


def cell_id(runner: str, args: tuple) -> str:
    """``table4/<system>/<variant>``, ``table4/native`` or
    ``table5/<tool>``."""
    if runner == "table4":
        system, optimized = args[0], args[1]
        if system is None:
            return "table4/native"
        return f"table4/{system}/{'crossover' if optimized else 'original'}"
    return f"{runner}/{args[0]}"


def paper_error_pp(table4: Dict[str, Any], table5: Dict[str, Any]) -> float:
    """Mean |simulated - paper| latency reduction, in percentage
    points, over the 20 Table-4 system x op rows and the 6 Table-5
    tools."""
    from repro.analysis.tables import reduction

    errors = []
    for row in table4.values():
        paper = row["paper"][1]
        for system, (original, crossover) in row["systems"].items():
            errors.append(abs(reduction(original, crossover)
                              - reduction(*paper[system])))
    for row in table5.values():
        _native, paper_original, paper_crossover = row["paper"]
        errors.append(abs(reduction(row["original"], row["crossover"])
                          - reduction(paper_original, paper_crossover)))
    return sum(errors) / len(errors)


class Tables(Workload):
    """``run_table4()`` + ``run_table5()``, cell by cell, serially."""

    name = "tables"
    min_rounds = 5
    work_units = ("cell",)

    def setup(self) -> None:
        from repro.analysis import experiments

        self.experiments = experiments
        experiments.run_table4()
        experiments.table5_cell("ls")

    def sweep(self, units: Units) -> Dict[str, Any]:
        """One pass over the 15 cells.  Each cell is looked up on the
        module at call time, so a traced run sees its wrapper."""
        from repro.core import convention

        ex = self.experiments
        convention.clear_caches()
        done: Dict[str, list] = {"table4": [], "table5": []}
        ops = []
        for runner, args in ex.table4_specs() + ex.table5_specs():
            op = cell_id(runner, args)
            self.mark(op)
            record = {"id": op, "n": 1, "digests": {}, "any_seed": [op],
                      "failed": 0, "error": None}
            run_cell = getattr(ex, f"{runner}_cell")
            try:
                value = units.unit("cell", lambda: run_cell(*args))
            except Exception as exc:    # the cell fails, the run goes on
                record.update(failed=1, error=_error(exc))
            else:
                record["digests"][op] = digest(value)
                done[runner].append((args, value))
            ops.append(record)
        extra = {}
        if not any(op["error"] for op in ops):
            extra["modeled_paper_err_pp"] = paper_error_pp(
                ex.merge_table4(done["table4"]),
                ex.merge_table5(done["table5"]))
        return {"ops": ops, "work_ops": len(ops), "extra": extra}

    def round(self, units: Units) -> Dict[str, Any]:
        with self.traced_round():
            return self.sweep(units)


class Observed(Tables):
    """The ``tables`` round under a lightweight telemetry session, a
    flight recorder and an observatory, fresh each round."""

    name = "observed"
    min_rounds = 3

    def setup(self) -> None:
        from repro.analysis import experiments

        self.experiments = experiments
        self.observe(lambda: (experiments.run_table4(),
                              experiments.table5_cell("ls")))

    @staticmethod
    def observe(body: Callable[[], Any]):
        """Run ``body`` with all three observers installed through their
        packages' public switches; returns (body result, recorder,
        observatory)."""
        from repro import audit, observatory, telemetry
        from repro.audit.recorder import FlightRecorder

        telemetry.install(telemetry.TelemetrySession.lightweight("perf"))
        try:
            with audit.scoped(FlightRecorder("perf")) as recorder, \
                    observatory.scoped(observatory.Observatory("perf")) as obs:
                result = body()
        finally:
            telemetry.uninstall()
        return result, recorder, obs

    def round(self, units: Units) -> Dict[str, Any]:
        from repro import audit

        with self.traced_round():
            result, recorder, obs = self.observe(lambda: self.sweep(units))
        payload = obs.to_dict()
        violations = audit.verify_chain(recorder.to_log())
        crosscheck = payload["crosscheck"]
        if violations or not crosscheck["ok"]:
            for op in result["ops"]:
                op["failed"] = op["n"]
                op["error"] = op["error"] or (
                    f"audit chain violations {len(violations)}, "
                    f"observatory crosscheck ok={crosscheck['ok']}")
        result["layer"] = {"audit.records": recorder.stats()["records"],
                           "observatory.windows": len(payload["windows"])}
        return result


# ---------------------------------------------------------------------------
# micro: NULL world calls and cross-VM syscalls on one two-VM machine
# ---------------------------------------------------------------------------


class Micro(Workload):
    """Closed loop, one caller: 10,000 NULL world calls, then 10,000
    cross-VM ``getpid`` calls, each call timed."""

    name = "micro"
    min_rounds = 8
    work_units = ("world_call", "crossvm")
    calls = 10_000
    warmup = 500

    def setup(self) -> None:
        from repro.core.call import CallRequest, WorldCallRuntime
        from repro.core.crossvm import CrossVMSyscallMechanism
        from repro.core.world import WorldRegistry
        from repro.hw.costs import FEATURES_CROSSOVER
        from repro.testbed import build_two_vm_machine, enter_vm_kernel

        machine, vm1, k1, vm2, k2 = build_two_vm_machine(
            features=FEATURES_CROSSOVER)
        machine.cpu.trace.enabled = False       # as the table runners set it
        registry = WorldRegistry(machine)
        runtime = WorldCallRuntime(machine, registry)
        executor = k2.spawn("perf-executor")

        def entry(request: CallRequest):
            name, *args = request.payload
            return k2.syscalls.invoke(executor, name, *args)

        enter_vm_kernel(machine, vm1)
        caller = registry.create_kernel_world(k1, label="K(vm1)")
        enter_vm_kernel(machine, vm2)
        callee = registry.create_kernel_world(
            k2, handler=entry, service_process=executor, label="K(vm2)")
        enter_vm_kernel(machine, vm1)
        runtime.setup_channel(caller, callee, pages=16)
        crossvm = CrossVMSyscallMechanism(machine)
        crossvm.setup_pair(vm1, vm2)
        machine.cpu.write_cr3(k1.master_page_table)

        wid = callee.wid
        payload = ("getppid",)
        self.perf = machine.cpu.perf
        self.calls_by_kind: Dict[str, Callable[[], Any]] = {
            "world_call": lambda: runtime.call(caller, wid, payload,
                                               authorize=False),
            "crossvm": lambda: crossvm.call(vm1, vm2, "getpid"),
        }
        for call in self.calls_by_kind.values():
            for _ in range(self.warmup):
                call()

    def loop(self, kind: str, call: Callable[[], Any]):
        """``calls`` timed calls; returns (latencies in ns, output
        counts keyed by (modeled cycles, result))."""
        perf = self.perf
        latencies = [0] * self.calls
        outputs: Dict[tuple, int] = {}
        for i in range(self.calls):
            self.mark(f"{kind}#{i}")
            cycles = perf.cycles
            start = clock()
            try:
                result = call()
            except Exception as exc:    # the call fails, the run goes on
                result = _error(exc)
            latencies[i] = clock() - start
            key = (perf.cycles - cycles, repr(result))
            outputs[key] = outputs.get(key, 0) + 1
        return latencies, outputs

    def round(self, units: Units) -> Dict[str, Any]:
        ops, extra = [], {}
        with self.traced_round():
            for kind, call in self.calls_by_kind.items():
                latencies, outputs = units.unit(
                    kind, lambda: self.loop(kind, call))
                latencies.sort()
                for p in (50, 99):
                    extra[f"{kind}_us_p{p}"] = \
                        percentile(latencies, p) * units.scale / 1000
                (cycles, _), _n = max(outputs.items(), key=lambda kv: kv[1])
                extra[f"modeled_{kind}_cycles"] = cycles
                for (cycles, result), count in sorted(outputs.items()):
                    ops.append({"id": kind, "n": count,
                                "digests": {kind: digest({"cycles": cycles,
                                                          "result": result})},
                                "any_seed": [kind], "failed": 0,
                                "error": None})
        return {"ops": ops, "work_ops": self.calls * len(self.calls_by_kind),
                "extra": extra}


# ---------------------------------------------------------------------------
# fleet / fleet_traced: 1000-tenant open-loop replay on the modeled clock
# ---------------------------------------------------------------------------


class Fleet(Workload):
    """For each mechanism: ``tenant_plan`` -> ``calibrate_costs`` ->
    ``build_fleet`` (a ``construct`` unit), then
    ``FleetScheduler(...).run()`` (a ``replay`` unit): the FLEET_PR9
    ``*@1000`` cells."""

    name = "fleet"
    min_rounds = 5
    work_units = ("replay",)
    setup_units = ("construct",)
    tenants = 1000
    horizon_ms = 20.0
    churn_every = 500
    cores = 16
    #: XrayRecorder arguments, or None for a dormant scheduler.
    xray: Optional[Dict[str, int]] = None

    def setup(self) -> None:
        from repro.fleet import scheduler, traffic
        from repro.hw.costs import CYCLES_PER_US
        from repro.xray import trace

        self.scheduler, self.traffic, self.trace = scheduler, traffic, trace
        self.horizon = int(self.horizon_ms * 1000 * CYCLES_PER_US)
        # Warm-up: every lazily imported module and first-call path,
        # on a fleet too small to matter.
        for mechanism in MECHANISMS:
            specs = traffic.tenant_plan(20, self.seed)
            fleet = scheduler.build_fleet(specs)
            scheduler.FleetScheduler(
                specs, scheduler.calibrate_costs(mechanism), seed=self.seed,
                horizon_cycles=self.horizon // 20, cores=self.cores,
                churn_every=self.churn_every, fleet=fleet,
                xray=self._recorder()).run()

    def _recorder(self):
        if self.xray is None:
            return None
        return self.trace.XrayRecorder(seed=self.seed, **self.xray)

    def cell(self, mechanism: str, units: Units) -> Dict[str, Any]:
        """One mechanism cell (the ``run_fleet_cell`` result shape) and
        its calibrated costs."""
        sched, traffic = self.scheduler, self.traffic

        def construct():
            specs = traffic.tenant_plan(self.tenants, self.seed)
            return specs, sched.calibrate_costs(mechanism), \
                sched.build_fleet(specs)

        specs, costs, fleet = units.unit("construct", construct)
        scheduler = sched.FleetScheduler(
            specs, costs, seed=self.seed, horizon_cycles=self.horizon,
            cores=self.cores, churn_every=self.churn_every, fleet=fleet,
            xray=self._recorder())
        result = units.unit("replay", scheduler.run)
        result["rate_scale"] = 1.0
        result["misses_serviced"] = fleet.service.misses_serviced
        return {"costs": costs.to_dict(), "result": result}

    def round(self, units: Units) -> Dict[str, Any]:
        cells: Dict[str, Any] = {}
        with self.traced_round():
            for mechanism in MECHANISMS:
                self.mark(mechanism)
                try:
                    cells[mechanism] = self.cell(mechanism, units)
                except Exception as exc:  # the cell fails, the run goes on
                    cells[mechanism] = {"error": _error(exc)}
        ops: List[Dict[str, Any]] = []
        layer = {"fleet.sched_events": 0, "fleet.revocations": 0,
                 "xray.traces_sampled": 0}
        requests = 0
        for mechanism, cell in cells.items():
            if "error" in cell:
                ops.append({"id": mechanism, "n": 1, "digests": {},
                            "any_seed": [], "failed": 1,
                            "error": cell["error"]})
                continue
            result = cell["result"]
            requests += result["requests"]
            # Calibration does not depend on the seed, so its costs are
            # checked at every seed; the cell itself only where recorded.
            costs = f"costs/{mechanism}"
            ops.append({"id": mechanism, "n": result["requests"],
                        "digests": {mechanism: digest(result),
                                    costs: digest(cell["costs"])},
                        "any_seed": [costs],
                        "failed": self.failed_requests(result),
                        "error": None})
            layer["fleet.sched_events"] += result["sched_events"]
            layer["fleet.revocations"] += result.get("revocations", 0)
            if "xray" in result:
                layer["xray.traces_sampled"] += \
                    result["xray"]["traces_sampled"]
        extra = {}
        if "result" in cells["baseline"]:
            extra["modeled_baseline_rps"] = \
                cells["baseline"]["result"]["throughput_rps"]
        if "result" in cells["world_call"]:
            from repro.hw.costs import us

            p99 = cells["world_call"]["result"]["latency"]["p99"]
            extra["modeled_world_call_p99_us"] = round(us(p99), 2)
        return {"ops": ops, "work_ops": requests, "extra": extra,
                "layer": layer}

    def failed_requests(self, result: Dict[str, Any]) -> int:
        """Requests that arrived but never completed."""
        return result["requests"] - result["completed"]


class FleetTraced(Fleet):
    """``fleet`` at 10 modeled ms with an ``XrayRecorder`` riding along
    (the XRAY_PR10 ``*@1000`` cells)."""

    name = "fleet_traced"
    horizon_ms = 10.0
    xray = {"sample_every": 16, "keep": 24}

    def failed_requests(self, result: Dict[str, Any]) -> int:
        if not self.trace.check_traces(result["xray"])["ok"]:
            return result["requests"]
        return super().failed_requests(result)


WORKLOADS = {cls.name: cls for cls in (Tables, Micro, Fleet, FleetTraced,
                                       Observed)}
