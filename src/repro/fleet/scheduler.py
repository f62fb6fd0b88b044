"""Deterministic fleet event loop: thousands of in-flight world calls.

Three layers, all on the modeled clock (no wall time anywhere):

**Calibration** (:func:`calibrate_costs`) prices one cross-world call
per mechanism by *running real calls* through ``core/call.py``'s
``mechanism=`` seam on a fresh two-VM machine — the same
calibrate-then-replay extrapolation the OpenSSH workload uses for its
sampled blocks.  The steady-state call splits into issue / callee
service / return stages, plus a measured cold-worker surcharge
(switchless) and a measured WT/IWT miss-service penalty (the cost a
tenant pays on its first call after a revocation).

**Fleet construction** (:func:`build_fleet`) stands up one machine with
a :class:`~repro.fleet.shards.ShardedWorldTable`, per-shard WT/IWT
caches, and two kernel worlds per tenant VM, then warms the caches by
walking a real ``world_call`` ring across every tenant — so the
per-shard miss accounting in the artifact comes from the actual
hypervisor service path, not from modeling.

**Scheduling** (:class:`FleetScheduler`) replays the seeded open-loop
arrivals from :mod:`repro.fleet.traffic` through an event heap keyed
``(cycle, seq)``.  A request occupies one core from grant to
completion (synchronous caller); each tenant has at most one request
in flight (Section 5.3's one-outstanding-call rule) and queues the
rest.  Mechanism differences enter exactly twice:

* **baseline** issue/return stages serialize on the hypervisor (the
  legacy trap path runs privileged software per transition), so the
  fleet's transitions queue on one modeled resource — this is what
  collapses baseline throughput at high tenant counts.  ``world_call``
  transitions are pure hardware (VMFUNC) and the switchless ring never
  leaves the guest, so neither contends;
* **switchless** calls pay the measured cold surcharge when the
  tenant's worker context has been idle past the spin window.

Determinism rule: events commit in strict ``(cycle, seq)`` order.  The
``interleave`` knob only changes how many same-cycle events are popped
per batch — newly pushed events always carry a larger ``seq`` than
anything already queued, so every interleave width commits the same
sequence and the results are **cycle-identical at 1/2/4 lanes** (the
claim the scale tests and the CI smoke job ``cmp``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.core.call import MECHANISMS
from repro.errors import SimulationError
from repro.fleet import traffic
from repro.fleet.shards import (
    DEFAULT_SHARDS,
    DEFAULT_STRIDE,
    ShardedWorldTable,
    ShardedWorldTableCaches,
)
from repro.hw.costs import CLOCK_HZ
from repro.telemetry.registry import (bucket_percentile, exemplars_dict,
                                      merge_exemplar)
from repro.xray.trace import (HANDLER, HV, MARSHAL, REFILL, RETURN,
                              TRANSITION, WAKEUP)


#: Geometric latency ladder: 2k cycles (~0.6us) .. 131M (~38ms).
LATENCY_BOUNDS = tuple(2_000 * (2 ** i) for i in range(17))

#: A switchless call is *hot* when the tenant's worker context served
#: a call within this window (it is still spinning); beyond it the
#: worker has parked and the call pays the measured wakeup surcharge.
HOT_WINDOW_CYCLES = 1_000_000

#: Default core-pool width (requests occupy a core grant-to-finish).
DEFAULT_CORES = 16

_EV_ARRIVAL = 0
_EV_STAGE = 1

# Stage opcodes a request walks (flattened from its traffic profile).
_LOCAL, _ISSUE, _SERVICE, _RETURN = range(4)


# ---------------------------------------------------------------------------
# calibration: price one call per mechanism by running real calls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MechanismCosts:
    """Per-call stage costs for one transport, in modeled cycles.

    Every number is *measured* on a real two-VM machine through
    ``runtime.call`` — the replay layer never invents a cost.
    """

    mechanism: str
    total_cycles: int         # steady-state end-to-end call
    service_cycles: int       # callee-side handler work (shared)
    issue_cycles: int         # caller -> callee transport half
    return_cycles: int        # callee -> caller transport half
    cold_extra_cycles: int    # parked-worker wakeup (switchless only)
    miss_penalty_cycles: int  # WT/IWT refill after a revocation
    serialized: bool          # issue/return contend on the hypervisor
    #: Marshal/encode half of the issue stage (attribution only: the
    #: scheduler still pushes one event for the whole issue duration,
    #: so adding this field cannot change any timing result).
    marshal_cycles: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mechanism": self.mechanism,
            "total_cycles": self.total_cycles,
            "service_cycles": self.service_cycles,
            "issue_cycles": self.issue_cycles,
            "return_cycles": self.return_cycles,
            "cold_extra_cycles": self.cold_extra_cycles,
            "miss_penalty_cycles": self.miss_penalty_cycles,
            "serialized": self.serialized,
            "marshal_cycles": self.marshal_cycles,
        }


class _CalibrationHarness:
    """A fresh two-VM world-call surface (the lmbench NULL-call shape),
    with a callee-side-only measurement so the transport halves can be
    separated from the handler's own work."""

    def __init__(self) -> None:
        from repro.core.call import CallRequest, WorldCallRuntime
        from repro.core.world import WorldRegistry
        from repro.hw.costs import FEATURES_CROSSOVER
        from repro.testbed import build_two_vm_machine, enter_vm_kernel

        machine, vm1, k1, vm2, k2 = build_two_vm_machine(
            features=FEATURES_CROSSOVER)
        machine.cpu.trace.enabled = False
        self.machine = machine
        self.cpu = machine.cpu
        self.vm1, self.k1 = vm1, k1
        self.vm2, self.k2 = vm2, k2
        self._enter = enter_vm_kernel
        registry = WorldRegistry(machine)
        self.runtime = WorldCallRuntime(machine, registry)
        self.executor = k2.spawn("fleet-executor")

        def entry(request: CallRequest):
            name, *args = request.payload
            return k2.syscalls.invoke(self.executor, name, *args)

        enter_vm_kernel(machine, vm1)
        self.caller = registry.create_kernel_world(k1, label="K(vm1)")
        enter_vm_kernel(machine, vm2)
        self.callee = registry.create_kernel_world(
            k2, handler=entry, service_process=self.executor,
            label="K(vm2)")
        enter_vm_kernel(machine, vm1)
        self.runtime.setup_channel(self.caller, self.callee, pages=16)
        self.cpu.write_cr3(k1.master_page_table)

    def call(self, mechanism: Optional[str]) -> int:
        """One ``getppid`` shuttle; returns its modeled cycle cost."""
        before = self.cpu.perf.cycles
        self.runtime.call(self.caller, self.callee.wid, ("getppid",),
                          authorize=False, mechanism=mechanism)
        return self.cpu.perf.cycles - before

    def service_only(self) -> int:
        """The handler's own cost, measured in the callee's kernel —
        no transport.  Restores the caller context afterwards."""
        self._enter(self.machine, self.vm2)
        before = self.cpu.perf.cycles
        self.k2.syscalls.invoke(self.executor, "getppid")
        delta = self.cpu.perf.cycles - before
        self._enter(self.machine, self.vm1)
        self.cpu.write_cr3(self.k1.master_page_table)
        return delta

    def idle(self, cycles: int) -> None:
        from repro.hw.costs import Cost

        self.cpu.perf.charge("idle", Cost(0, cycles))


def calibrate_costs(mechanism: str) -> MechanismCosts:
    """Measure one mechanism's stage costs on a fresh machine."""
    from repro import switchless as _sl
    from repro.core import convention, fastpath
    from repro.switchless import SwitchlessEngine

    if mechanism not in MECHANISMS:
        raise SimulationError(f"unknown mechanism {mechanism!r}; "
                              f"choose from {MECHANISMS}")
    convention.clear_caches()
    engine = (SwitchlessEngine(force=True) if mechanism == "switchless"
              else None)
    mech_arg = "baseline" if mechanism == "baseline" else None
    try:
        with fastpath.scoped(True), _sl.scoped(engine):
            harness = _CalibrationHarness()
            harness.call(mech_arg)           # cold caches / ring setup
            harness.call(mech_arg)
            total = min(harness.call(mech_arg) for _ in range(8))
            service = harness.service_only()
            harness.call(mech_arg)           # back to steady state
            if harness.cpu.wt_caches is not None:
                harness.cpu.wt_caches.flush()
            miss_penalty = max(0, harness.call(mech_arg) - total)
            cold_extra = 0
            if mechanism == "switchless":
                harness.idle(50_000_000)     # park the worker context
                cold_extra = max(0, harness.call(mech_arg) - total)
    finally:
        convention.clear_caches()
    transport = max(2, total - service)
    issue = (transport + 1) // 2
    # The marshal/encode share of the issue half, priced from the
    # same cost model the measured call charged (save-state +
    # param-setup); clamped so the transition core keeps at least
    # one cycle.  Attribution only — issue timing is unchanged.
    cm = harness.machine.cost_model
    marshal = min(max(0, issue - 1),
                  cm.world_save_state.cycles
                  + cm.world_param_setup.cycles)
    return MechanismCosts(
        mechanism=mechanism,
        total_cycles=total,
        service_cycles=min(service, total - 2),
        issue_cycles=issue,
        return_cycles=transport // 2,
        cold_extra_cycles=cold_extra,
        miss_penalty_cycles=miss_penalty,
        serialized=(mechanism == "baseline"),
        marshal_cycles=marshal,
    )


# ---------------------------------------------------------------------------
# fleet construction: one sharded machine, two worlds per tenant
# ---------------------------------------------------------------------------


@dataclass
class FleetTenant:
    """One tenant VM's worlds (``callee_wid`` changes under churn)."""

    spec: traffic.TenantSpec
    vm: Any
    caller_wid: int
    callee_wid: int
    caller_pt: Any
    callee_pt: Any
    shard: int


class FleetMachine:
    """A sharded machine hosting the whole tenant fleet's worlds."""

    def __init__(self, machine, table: ShardedWorldTable,
                 tenants: List[FleetTenant]) -> None:
        self.machine = machine
        self.table = table
        self.service = machine.hypervisor.worlds
        self.tenants = tenants
        self.revocations = 0

    def revoke_and_recreate(self, tenant: FleetTenant) -> int:
        """Destroy the tenant's callee world and register a fresh one.

        Runs the *real* ``destroy_world``/``create_world`` path: only
        the owning shard's epochs move, every CPU cache entry for the
        old WID is invalidated, and the new WID comes from the same
        shard's range.  Returns the new WID.
        """
        from repro.guestos.kernel import KERNEL_TEXT_GVA

        self.service.destroy_world(tenant.callee_wid, self.machine.cpus)
        entry = self.service.create_world(
            vm=tenant.vm, ring=0, page_table=tenant.callee_pt,
            pc=KERNEL_TEXT_GVA)
        tenant.callee_wid = entry.wid
        self.revocations += 1
        return entry.wid

    def shard_stats(self) -> List[Dict[str, int]]:
        stats = self.table.shard_stats()
        for entry in stats:
            entry["misses_serviced"] = \
                self.service.shard_misses.get(entry["shard"], 0)
        return stats


def build_fleet(specs: List[traffic.TenantSpec], *,
                shards: int = DEFAULT_SHARDS,
                stride: Optional[int] = None,
                cache_entries: int = 16,
                warm: bool = True) -> FleetMachine:
    """Stand up the fleet: sharded table + caches, two kernel worlds
    per tenant VM (caller + callee), owners pinned round-robin across
    shards, and — with ``warm=True`` — a real ``world_call`` walk
    across every tenant so the per-shard caches and the hypervisor's
    per-shard miss counters start from genuine traffic."""
    from repro.guestos.kernel import KERNEL_TEXT_GVA
    from repro.hw.costs import HardwareFeatures
    from repro.hw.paging import PageTable
    from repro.machine import Machine

    if stride is None:
        # Room for every tenant's two worlds plus churn headroom.
        stride = max(DEFAULT_STRIDE,
                     4 * ((2 * len(specs)) // max(1, shards) + 64))
    table = ShardedWorldTable(shards=shards, stride=stride)
    # The architectural EPTP list holds 512 entries; a fleet past that
    # would span hosts in hardware.  One simulated machine stands in
    # for the whole fleet, so widen the modeled list to fit — one list
    # the hypervisor shares across every VMCS, not one per tenant.
    machine = Machine(
        features=HardwareFeatures(vmfunc=True, crossover=True,
                                  wt_cache_entries=cache_entries,
                                  eptp_list_size=max(512, len(specs) + 8)),
        world_table=table)
    machine.cpu.trace.enabled = False
    machine.cpu.wt_caches = ShardedWorldTableCaches(
        table, capacity=cache_entries)
    svc = machine.hypervisor.worlds
    tenants: List[FleetTenant] = []
    for spec in specs:
        vm = machine.hypervisor.create_vm(f"tenant{spec.index}")
        shard = spec.index % shards
        table.pin_owner(vm, shard)
        wids = []
        pts = []
        for side in ("caller", "callee"):
            pt = PageTable(f"tenant{spec.index}-{side}")
            gpa = vm.map_new_page("kernel-text")
            pt.map(KERNEL_TEXT_GVA, gpa, user=False, executable=True)
            entry = svc.create_world(vm=vm, ring=0, page_table=pt,
                                     pc=KERNEL_TEXT_GVA)
            wids.append(entry.wid)
            pts.append(pt)
        tenants.append(FleetTenant(
            spec=spec, vm=vm, caller_wid=wids[0], callee_wid=wids[1],
            caller_pt=pts[0], callee_pt=pts[1], shard=shard))
    if not tenants:
        raise SimulationError("a fleet needs at least one tenant")
    machine.hypervisor.launch(machine.cpu, tenants[0].vm)
    machine.cpu.write_cr3(tenants[0].caller_pt)
    if warm:
        for tenant in tenants:
            svc.world_call(machine.cpu, tenant.callee_wid)
            svc.world_call(machine.cpu, tenant.caller_wid)
    return FleetMachine(machine, table, tenants)


# ---------------------------------------------------------------------------
# the event loop
# ---------------------------------------------------------------------------


class _Tenant:
    __slots__ = ("spec", "ops", "busy", "queue", "last_service",
                 "pending_penalty", "arrivals_iter", "fleet_tenant")

    def __init__(self, spec: traffic.TenantSpec,
                 arrivals_iter: Iterator[int],
                 fleet_tenant: Optional[FleetTenant]) -> None:
        self.spec = spec
        self.ops = traffic.profile_ops(spec.kind)
        self.busy = False
        self.queue: List["_Request"] = []
        self.last_service = -(10 ** 12)
        self.pending_penalty = 0
        self.arrivals_iter = arrivals_iter
        self.fleet_tenant = fleet_tenant


class _Request:
    __slots__ = ("tenant", "arrival", "stages", "idx", "xr")

    def __init__(self, tenant: _Tenant, arrival: int) -> None:
        self.tenant = tenant
        self.arrival = arrival
        self.idx = 0
        self.xr = None          # TraceState when an xray recorder rides
        stages: List = []
        for op in tenant.ops:
            if op[0] == "call":
                stages.append((_ISSUE, 0))
                stages.append((_SERVICE, 0))
                stages.append((_RETURN, 0))
            else:
                stages.append((_LOCAL, op[1]))
        self.stages = stages


class _Window:
    __slots__ = ("arrivals", "completed", "revocations", "backlog_max",
                 "counts", "count", "sum", "max", "exemplars")

    def __init__(self) -> None:
        self.arrivals = 0
        self.completed = 0
        self.revocations = 0
        self.backlog_max = 0
        self.counts = [0] * len(LATENCY_BOUNDS)
        self.count = 0
        self.sum = 0
        self.max = 0
        self.exemplars = None   # bucket -> (rank, trace id, value)

    def observe(self, value: int,
                exemplar: Optional[str] = None) -> None:
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        lo, hi = 0, len(LATENCY_BOUNDS)
        while lo < hi:
            mid = (lo + hi) // 2
            if LATENCY_BOUNDS[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(LATENCY_BOUNDS):
            self.counts[lo] += 1
        # else: overflow, derived as count - sum(counts)
        if exemplar is not None:
            self.exemplars = merge_exemplar(
                self.exemplars, lo, exemplar, value)


class FleetScheduler:
    """Deterministic modeled-cycle event loop over the tenant fleet."""

    def __init__(self, specs: List[traffic.TenantSpec],
                 costs: MechanismCosts, *,
                 seed: int = 0,
                 horizon_cycles: int,
                 window_cycles: Optional[int] = None,
                 cores: int = DEFAULT_CORES,
                 interleave: int = 1,
                 churn_every: int = 0,
                 fleet: Optional[FleetMachine] = None,
                 xray=None) -> None:
        if horizon_cycles <= 0:
            raise SimulationError("horizon must be positive")
        if interleave < 1:
            raise SimulationError("interleave must be >= 1")
        if churn_every and fleet is None:
            raise SimulationError(
                "world churn needs a real fleet machine to revoke on")
        self.costs = costs
        self.seed = seed
        self.horizon = horizon_cycles
        self.window_cycles = window_cycles or max(1, horizon_cycles // 32)
        self.cores_total = cores
        self.free_cores = cores
        self.interleave = interleave
        self.churn_every = churn_every
        self.fleet = fleet
        #: Optional :class:`~repro.xray.trace.XrayRecorder`.  Every
        #: hook below is behind ``is not None`` and records pure
        #: bookkeeping — no event, duration or commit-order changes —
        #: so a dormant scheduler's results are bit-identical to PR9.
        self.xray = xray
        self.hv_holder: Optional[int] = None
        by_index = {}
        if fleet is not None:
            by_index = {t.spec.index: t for t in fleet.tenants}
        self.tenants = [
            _Tenant(spec, traffic.arrivals(spec, seed, horizon_cycles),
                    by_index.get(spec.index))
            for spec in specs]
        # Event heap + ready queue, both keyed (cycle, seq): seq is a
        # global monotone counter, so commit order is total and any
        # interleave width replays the identical sequence.
        self._seq = 0
        self.events: List = []
        self.ready: List = []
        self.sched_events = 0
        self.backlog = 0
        self.calls = 0
        self.calls_hot = 0
        self.calls_cold = 0
        self.hv_free = 0
        self.hv_busy = 0
        self.hv_wait = 0
        self.arrived = 0
        self.completed = 0
        self.completed_by_horizon = 0
        self.last_completion = 0
        self.windows: Dict[int, _Window] = {}
        self.total = _Window()

    # -- plumbing ----------------------------------------------------

    def _push(self, cycle: int, kind: int, payload) -> None:
        heapq.heappush(self.events, (cycle, self._seq, kind, payload))
        self._seq += 1

    def _window(self, cycle: int) -> _Window:
        index = cycle // self.window_cycles
        window = self.windows.get(index)
        if window is None:
            window = self.windows[index] = _Window()
        return window

    # -- the loop ----------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Drain the fleet: replay arrivals up to the horizon, then let
        in-flight and queued requests finish (the drain tail is where
        a saturated baseline's worst latencies live)."""
        for tenant in self.tenants:
            first = next(tenant.arrivals_iter, None)
            if first is not None:
                self._push(first, _EV_ARRIVAL, tenant)
        events = self.events
        while events:
            batch = [heapq.heappop(events)]
            cycle0 = batch[0][0]
            while (len(batch) < self.interleave and events
                   and events[0][0] == cycle0):
                batch.append(heapq.heappop(events))
            for cycle, _seq, kind, payload in batch:
                self.sched_events += 1
                if kind == _EV_ARRIVAL:
                    self._on_arrival(cycle, payload)
                else:
                    self._on_stage(cycle, payload)
        return self._results()

    def _on_arrival(self, cycle: int, tenant: _Tenant) -> None:
        nxt = next(tenant.arrivals_iter, None)
        if nxt is not None:
            self._push(nxt, _EV_ARRIVAL, tenant)
        request = _Request(tenant, cycle)
        if self.xray is not None:
            request.xr = self.xray.begin(tenant.spec.index, cycle)
            request.xr.hv_busy0 = self.hv_busy
        self.arrived += 1
        self.backlog += 1
        window = self._window(cycle)
        window.arrivals += 1
        if self.backlog > window.backlog_max:
            window.backlog_max = self.backlog
        if tenant.busy:
            tenant.queue.append(request)
            return
        tenant.busy = True
        heapq.heappush(self.ready, (cycle, self._seq, request))
        self._seq += 1
        self._grant(cycle)

    def _grant(self, cycle: int) -> None:
        while self.free_cores > 0 and self.ready:
            _rc, _rs, request = heapq.heappop(self.ready)
            self.free_cores -= 1
            self._start_stage(request, cycle)

    def _start_stage(self, request: _Request, cycle: int) -> None:
        opcode, operand = request.stages[request.idx]
        costs = self.costs
        xr = request.xr
        if xr is not None and xr.grant is None:
            xr.grant = cycle    # queue_wait = grant - arrival
            xr.hv_busyg = self.hv_busy
        if opcode == _LOCAL:
            if xr is not None:
                xr.segs[HANDLER] += operand
            self._push(cycle + operand, _EV_STAGE, request)
            return
        if opcode == _ISSUE:
            tenant = request.tenant
            self.calls += 1
            penalty = tenant.pending_penalty
            duration = costs.issue_cycles + penalty
            tenant.pending_penalty = 0
            cold = 0
            if costs.cold_extra_cycles:
                if cycle - tenant.last_service <= HOT_WINDOW_CYCLES:
                    self.calls_hot += 1
                else:
                    self.calls_cold += 1
                    cold = costs.cold_extra_cycles
                    duration += cold
            if xr is not None:
                xr.segs[REFILL] += penalty
                xr.segs[WAKEUP] += cold
                xr.segs[MARSHAL] += costs.marshal_cycles
                xr.segs[TRANSITION] += (costs.issue_cycles
                                        - costs.marshal_cycles)
            self._push_transition(request, cycle, duration)
            return
        if opcode == _SERVICE:
            if xr is not None:
                xr.segs[HANDLER] += costs.service_cycles
            self._push(cycle + costs.service_cycles, _EV_STAGE, request)
            return
        # _RETURN
        if xr is not None:
            xr.segs[RETURN] += costs.return_cycles
        self._push_transition(request, cycle, costs.return_cycles)

    def _push_transition(self, request: _Request, cycle: int,
                         duration: int) -> None:
        """Issue/return transport: contends on the hypervisor for the
        serialized (legacy trap) mechanism, pure hardware otherwise."""
        if not self.costs.serialized:
            self._push(cycle + duration, _EV_STAGE, request)
            return
        start = max(cycle, self.hv_free)
        wait = start - cycle
        self.hv_wait += wait
        self.hv_free = start + duration
        self.hv_busy += duration
        if self.xray is not None:
            xr = request.xr
            if xr is not None:
                xr.segs[HV] += wait
                if wait and self.hv_holder is not None:
                    self.xray.hv_blame(self.hv_holder,
                                       request.tenant.spec.index, wait)
            self.hv_holder = request.tenant.spec.index
        self._push(start + duration, _EV_STAGE, request)

    def _on_stage(self, cycle: int, request: _Request) -> None:
        opcode, _operand = request.stages[request.idx]
        if opcode == _SERVICE:
            request.tenant.last_service = cycle
        request.idx += 1
        if request.idx < len(request.stages):
            self._start_stage(request, cycle)
            return
        self._complete(request, cycle)

    def _complete(self, request: _Request, cycle: int) -> None:
        tenant = request.tenant
        latency = cycle - request.arrival
        exemplar = None
        if request.xr is not None:
            # Sampled requests hand their trace id back as the
            # histogram exemplar — every exemplar id is replayable.
            exemplar = self.xray.commit(request.xr, cycle)
        window = self._window(cycle)
        window.completed += 1
        window.observe(latency, exemplar)
        self.total.observe(latency, exemplar)
        self.completed += 1
        self.backlog -= 1
        if cycle <= self.horizon:
            self.completed_by_horizon += 1
        if cycle > self.last_completion:
            self.last_completion = cycle
        if (self.churn_every and
                self.completed % self.churn_every == 0 and
                tenant.fleet_tenant is not None):
            self.fleet.revoke_and_recreate(tenant.fleet_tenant)
            tenant.pending_penalty += self.costs.miss_penalty_cycles
            tenant.last_service = -(10 ** 12)   # ring torn down: cold
            window.revocations += 1
        self.free_cores += 1
        if tenant.queue:
            nxt = tenant.queue.pop(0)
            heapq.heappush(self.ready, (cycle, self._seq, nxt))
            self._seq += 1
        else:
            tenant.busy = False
        self._grant(cycle)

    # -- results -----------------------------------------------------

    def _hist_dict(self, window: _Window) -> Dict[str, Any]:
        overflow = window.count - sum(window.counts)
        buckets = window.counts + [overflow]
        bounds = list(LATENCY_BOUNDS)

        def pct(p: float) -> Optional[float]:
            value = bucket_percentile(LATENCY_BOUNDS, buckets,
                                      window.count, p,
                                      max_value=window.max or None)
            return None if value is None else round(value, 2)

        out = {
            "bounds": bounds,
            "counts": list(window.counts),
            "count": window.count,
            "sum": window.sum,
            "overflow": overflow,
            "max": window.max,
            "p50": pct(50), "p90": pct(90), "p99": pct(99),
            "p999": pct(99.9),
        }
        if window.exemplars:
            out["exemplars"] = exemplars_dict(window.exemplars)
        return out

    def _results(self) -> Dict[str, Any]:
        horizon_s = self.horizon / CLOCK_HZ
        last_index = max(self.windows) if self.windows else 0
        windows = []
        for index in range(last_index + 1):
            window = self.windows.get(index)
            if window is None:
                window = _Window()
            windows.append({
                "index": index,
                "start_cycles": index * self.window_cycles,
                "cycles": self.window_cycles,
                "counters": {
                    "fleet.arrivals": window.arrivals,
                    "fleet.completed": window.completed,
                    "fleet.revocations": window.revocations,
                },
                "gauges": {"fleet.backlog": window.backlog_max},
                "histograms": {
                    "fleet.latency.cycles": self._hist_dict(window)},
                "subsystems": {},
            })
        total = self._hist_dict(self.total)
        result: Dict[str, Any] = {
            "mechanism": self.costs.mechanism,
            "tenants": len(self.tenants),
            "seed": self.seed,
            "cores": self.cores_total,
            "interleave": self.interleave,
            "horizon_cycles": self.horizon,
            "window_cycles": self.window_cycles,
            "requests": self.arrived,
            "completed": self.completed,
            "completed_by_horizon": self.completed_by_horizon,
            "offered_rps": round(self.arrived / horizon_s, 2),
            "throughput_rps": round(
                self.completed_by_horizon / horizon_s, 2),
            "sched_events": self.sched_events,
            "last_completion_cycles": self.last_completion,
            "latency": {
                "p50": total["p50"], "p90": total["p90"],
                "p99": total["p99"], "p999": total["p999"],
                "max": self.total.max,
                "mean": round(self.total.sum / self.total.count, 2)
                if self.total.count else None,
            },
            "calls": {"total": self.calls, "hot": self.calls_hot,
                      "cold": self.calls_cold},
            "hv": {"busy_cycles": self.hv_busy,
                   "wait_cycles": self.hv_wait},
            "costs": self.costs.to_dict(),
            "windows": windows,
        }
        if self.fleet is not None:
            result["revocations"] = self.fleet.revocations
            result["shards"] = self.fleet.shard_stats()
        if self.xray is not None:
            result["xray"] = self.xray.to_dict(
                p99=result["latency"]["p99"],
                exemplars=exemplars_dict(self.total.exemplars),
                windows=windows)
        return result
