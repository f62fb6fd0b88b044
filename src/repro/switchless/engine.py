"""The switchless worker-context call engine.

Models the third call mechanism beyond the paper's baseline trap and
VMFUNC ``world_call``: worker contexts inside the callee world polling
shared-memory request rings, so a hot call crosses *no* privilege or
world boundary at all ("SGX Switchless Calls Made Configless",
arXiv:2305.00763, transplanted to the CrossOver setting).

Everything is deterministic: the worker scheduler runs on *modeled*
cycles (never wall-clock), rings are real byte rings in
:class:`~repro.hypervisor.shared_memory.SharedMemoryRegion` frames, and
marshaling goes through the same ``core/convention`` cache as the other
mechanisms, so payload copy charges are bit-identical across
mechanisms.

Cost accounting (all primitives live in :class:`repro.hw.costs.CostModel`):

* **hot call** (worker still spinning): ``ring_enqueue`` + payload copy
  + ``cache_line_transfer`` + ``worker_poll`` + ``ring_dequeue`` +
  payload copy for the request, and the mirror image for the reply —
  ~356 fixed cycles versus ~510 for a minimal-mode ``world_call``;
* **cold call** (worker parked after exhausting its spin budget, or
  reassigned from another ring): adds ``worker_wakeup`` and/or
  ``worker_context_switch`` — far worse than a world switch, which is
  exactly the trade the adaptive policy navigates;
* wasted worker spin and sleep transitions are *engine statistics* (the
  configless paper's CPU-waste metric), not charges on the caller: the
  caller's counters only ever contain what it actually waits on.

The engine is configless: ``force`` and ``workers`` are its only
settings.  Ring size, the tuner's bounds and the window width are
module constants, and the auto-tuner retunes the worker pool and spin
budget per window from what it measured.

The engine is a policy, so it is a zero-cost-when-disabled module
global of its own (see ``repro.switchless.scoped``) rather than an
observer on :mod:`repro.observe`: the dispatch seams read one module
attribute and branch on ``None``, like the fault engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import observe
from repro.errors import (CalleeHang, ConfigurationError, GuestOSError,
                          SimulationError)
from repro.observe import Event
from repro.switchless.policy import WINDOW_CYCLES, AdaptivePolicy

#: Additive counters, in ``to_dict`` order.
STAT_FIELDS = (
    "calls",
    "hot_calls",
    "cold_calls",
    "wakeups",
    "worker_reassigns",
    "ring_setups",
    "enqueued_slots",
    "spin_cycles_wasted",
    "flips_to_switchless",
    "flips_to_world_call",
    "worker_grows",
    "worker_shrinks",
    "spin_grows",
    "spin_shrinks",
)

#: Poll iterations a worker spins before it parks (the tuner's start).
SPIN_BUDGET = 1024
#: Pages per ring (matches crossvm SHARED_PAGES).
RING_PAGES = 20
#: Bounds the auto-tuner keeps the worker pool and spin budget within.
MAX_WORKERS = 8
MIN_SPIN = 16
MAX_SPIN = 16384


@dataclass
class SwitchlessStats:
    """Additive engine counters."""

    calls: int = 0
    hot_calls: int = 0
    cold_calls: int = 0
    wakeups: int = 0
    worker_reassigns: int = 0
    ring_setups: int = 0
    enqueued_slots: int = 0
    spin_cycles_wasted: int = 0
    flips_to_switchless: int = 0
    flips_to_world_call: int = 0
    worker_grows: int = 0
    worker_shrinks: int = 0
    spin_grows: int = 0
    spin_shrinks: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in STAT_FIELDS}


class _Worker:
    """One worker context inside a callee world."""

    __slots__ = ("index", "asleep", "ring_key", "last_used")

    def __init__(self, index: int) -> None:
        self.index = index
        self.asleep = True           # parked until its first request
        self.ring_key: Optional[Tuple[str, Any]] = None
        self.last_used = 0


class _RingPair:
    """Request + reply rings for one callee, plus service bookkeeping."""

    __slots__ = ("request", "reply", "last_service_cycle")

    def __init__(self, request, reply) -> None:
        self.request = request
        self.reply = reply
        self.last_service_cycle: Optional[int] = None


class SwitchlessEngine:
    """Deterministic worker scheduler + dispatch target for the seams.

    ``force=True`` diverts every dispatch to the rings; otherwise the
    adaptive policy decides per site.  ``workers`` is the initial pool
    size; the auto-tuner retunes it (and the spin budget) per window.
    """

    def __init__(self, *, force: bool = False, workers: int = 1) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"switchless workers must be at least 1, not {workers!r}")
        self.force = force
        self.workers = workers
        self.stats = SwitchlessStats()
        self.policy = AdaptivePolicy()
        #: Live (auto-tuned) knob.
        self.spin_budget = SPIN_BUDGET
        self._machine = None
        self._rings: Dict[Tuple[str, Any], _RingPair] = {}
        self._pool: List[_Worker] = []
        self._seq = 0
        # Auto-tuner window accumulators (modeled cycles).
        self._win_start: Optional[int] = None
        self._win_seq0 = 0
        self._win_calls = 0
        self._win_wakeups = 0
        self._win_reassigns = 0
        self._win_waste = 0

    @property
    def worker_count(self) -> int:
        return len(self._pool) if self._pool else self.workers

    def tuning(self) -> Dict[str, int]:
        """The currently tuned (non-additive) knob values."""
        return {"workers": self.worker_count,
                "spin_budget": self.spin_budget}

    # ------------------------------------------------------------------
    # the dispatch-seam entry points
    # ------------------------------------------------------------------

    def select(self, kind: str, caller_id: Any, callee_id: Any,
               cycles: int) -> Optional[str]:
        """Mechanism decision for one dispatch (observes the call).

        Pure bookkeeping: nothing is charged to the simulated CPU, so an
        adaptive engine leaves every counter bit-identical until its
        policy flips a site.  Returns ``"switchless"`` to divert the
        call, ``None`` to leave it on its default path.
        """
        if self.force:
            return "switchless"
        before = len(self.policy.flips)
        mechanism = self.policy.decide((kind, caller_id, callee_id), cycles)
        if len(self.policy.flips) != before:
            self._on_flip(self.policy.flips[-1][1])
            site, to_mechanism, at_cycles = self.policy.flips[-1]
            observe.emit("switchless", "flip", site=site,
                         detail=to_mechanism, cycles=at_cycles)
        return "switchless" if mechanism == "switchless" else None

    def world_call(self, runtime, caller, callee_wid: int,
                   payload: Any = None, *, authorize: bool = True) -> Any:
        """Serve one world-call site switchlessly."""
        observers = observe.observers
        if observers is None:
            return self._world_call_impl(runtime, caller, callee_wid,
                                         payload, authorize)
        cpu = runtime.machine.cpu
        observe.publish(observers, Event(
            "switchless", "switchless_begin", caller_wid=caller.wid,
            callee_wid=callee_wid, detail="world", ref=cpu))
        try:
            return self._world_call_impl(runtime, caller, callee_wid,
                                         payload, authorize)
        finally:
            observe.publish(observers, Event(
                "switchless", "switchless_end", detail="world", ref=cpu))

    def crossvm_call(self, mechanism, from_vm, to_vm, request_obj: Any,
                     server) -> Any:
        """Serve one cross-VM site switchlessly."""
        observers = observe.observers
        if observers is None:
            return self._crossvm_impl(mechanism, from_vm, to_vm,
                                      request_obj, server)
        cpu = mechanism.machine.cpu
        observe.publish(observers, Event(
            "switchless", "switchless_begin", from_vm.name, to_vm.name,
            detail="crossvm", ref=cpu))
        try:
            return self._crossvm_impl(mechanism, from_vm, to_vm,
                                      request_obj, server)
        finally:
            observe.publish(observers, Event(
                "switchless", "switchless_end", detail="crossvm", ref=cpu))

    # ------------------------------------------------------------------
    # world-call service
    # ------------------------------------------------------------------

    def _world_call_impl(self, runtime, caller, callee_wid: int,
                         payload: Any, authorize: bool) -> Any:
        from repro.core import convention
        from repro.core.call import callee_outcome

        machine = runtime.machine
        cpu = machine.cpu
        if not caller.matches_cpu(cpu):
            raise SimulationError(
                f"CPU is not executing in caller world {caller.label} "
                f"(currently {cpu.world_label})")

        wire, decoded = convention.roundtrip(payload)
        start, cold, ring = self._submit(machine, ("world", callee_wid),
                                         wire)
        # The worker context lives inside the callee world and runs the
        # runtime's one callee half.  The guest scheduler already runs it
        # as the service process, so no sched_reload is charged — that
        # is a world-switch cost.  No watchdog covers the worker: a hung
        # handler is reported over the reply ring like any other error.
        try:
            result = runtime._run_callee(runtime.registry.get(callee_wid),
                                         callee_wid, caller.wid, decoded,
                                         authorize, sched_reload=False)
        except CalleeHang as hang:
            result = hang
        reply_wire, reply_value = convention.roundtrip(result)
        self._complete(machine, ring, reply_wire)
        self.policy.note_service(("world", caller.wid, callee_wid),
                                 cpu.perf.cycles - start, cold)
        return callee_outcome(reply_value, caller.wid)

    # ------------------------------------------------------------------
    # cross-VM service
    # ------------------------------------------------------------------

    def _crossvm_impl(self, mechanism, from_vm, to_vm, request_obj: Any,
                      server) -> Any:
        from repro.core import convention

        machine = mechanism.machine
        cpu = machine.cpu
        site = ("crossvm", from_vm.name, to_vm.name)
        wire, decoded = convention.roundtrip(request_obj)
        start, cold, ring = self._submit(machine, ("crossvm", to_vm.name),
                                         wire)
        # The worker context is *resident* in the callee VM: the service
        # runs there while the caller's vCPU never switches.  On the
        # single modeled CPU that residency is pure bookkeeping — flip
        # EPT/CR3 to the callee without charging (the switchless cost is
        # the ring/poll/wakeup charges made by _submit/_complete), run
        # the service, flip back.
        saved_ept, saved_vm = cpu.ept, cpu.vm_name
        saved_pt = cpu.page_table
        cpu.ept = to_vm.ept
        cpu.vm_name = to_vm.name
        cpu.tlb.on_ept_switch(to_vm.ept.eptp)
        if to_vm.kernel is not None:
            cpu.write_cr3(to_vm.kernel.master_page_table, charge=False)
        try:
            outcome = server(decoded)
        except GuestOSError as err:
            outcome = err
        finally:
            cpu.ept = saved_ept
            cpu.vm_name = saved_vm
            if saved_ept is not None:
                cpu.tlb.on_ept_switch(saved_ept.eptp)
            if saved_pt is not None:
                cpu.write_cr3(saved_pt, charge=False)
        reply_wire, reply_value = convention.roundtrip(outcome)
        self._complete(machine, ring, reply_wire)
        self.policy.note_service(site, cpu.perf.cycles - start, cold)
        if isinstance(reply_value, GuestOSError):
            raise reply_value
        return reply_value

    # ------------------------------------------------------------------
    # the deterministic worker scheduler
    # ------------------------------------------------------------------

    def _ensure_machine(self, machine) -> None:
        if self._machine is machine:
            return
        # A new machine means new memory and a restarted modeled clock:
        # rebuild rings and workers, rebase every window anchor.  Tuned
        # knob values carry over (the tuner's learning persists).  The
        # *first* machine is not a change — the policy has been watching
        # its clock through select() since before the first submit, and
        # rebasing here would tear the site windows mid-run.
        first = self._machine is None
        self._machine = machine
        self._rings.clear()
        self._pool = [_Worker(i) for i in range(self.workers)]
        self._win_start = None
        self._win_seq0 = self._seq
        self._win_calls = 0
        self._win_wakeups = 0
        self._win_reassigns = 0
        self._win_waste = 0
        if not first:
            self.policy.rebase()

    def on_world_revoked(self, wid: int) -> None:
        """Forget one revoked world's switchless state (and nothing
        else's).

        Called by the hypervisor's ``destroy_world``: the revoked
        world's rings are torn down, its workers parked, and its policy
        sites dropped — while every *other* site's flip state, window
        counters and rings survive untouched.  With the fleet's sharded
        world table this is the switchless half of shard isolation:
        tenant A's revocation cannot flip tenant B back to world_call.
        """
        for key in [k for k in self._rings
                    if k[0] == "world" and k[1] == wid]:
            del self._rings[key]
            for worker in self._pool:
                if worker.ring_key == key:
                    worker.ring_key = None
                    worker.asleep = True
        self.policy.drop_world(wid)

    def _ring_for(self, key: Tuple[str, Any], machine) -> _RingPair:
        ring = self._rings.get(key)
        if ring is None:
            from repro.hypervisor.shared_memory import (SharedMemoryRegion,
                                                        SharedRing)
            cpu = machine.cpu
            pages = RING_PAGES
            label = f"switchless-{key[0]}"
            regions = [
                SharedMemoryRegion(machine.memory,
                                   machine.hypervisor.alloc_common_gpa(pages),
                                   pages, f"{label}-req"),
                SharedMemoryRegion(machine.memory,
                                   machine.hypervisor.alloc_common_gpa(pages),
                                   pages, f"{label}-rep"),
            ]
            # One-time setup: mapping the ring pages into both sides.
            cpu.perf.charge("page_map",
                            cpu.cost_model.page_map.scaled(2 * pages))
            ring = _RingPair(SharedRing(regions[0], label=f"{label}-req"),
                             SharedRing(regions[1], label=f"{label}-rep"))
            self._rings[key] = ring
            self.stats.ring_setups += 1
        return ring

    def _submit(self, machine, key: Tuple[str, Any], wire: bytes
                ) -> Tuple[int, bool, _RingPair]:
        """Caller enqueues; a worker picks the request up.

        Returns ``(start_cycles, cold, ring)``.  All scheduling is a
        function of modeled cycles, so the same workload always yields
        the same hot/cold sequence.
        """
        cpu = machine.cpu
        cm = cpu.cost_model
        self._ensure_machine(machine)
        now = cpu.perf.cycles
        self._roll_window(now)
        ring = self._ring_for(key, machine)
        self._seq += 1
        self.stats.calls += 1
        self._win_calls += 1

        # Caller side: stamp the descriptor into the request ring.
        cpu.charge("ring_enqueue")
        cpu.perf.charge("copy", cm.copy(len(wire)))
        nslots = ring.request.try_push(wire)
        if nslots == 0:                        # stale residue; self-heal
            ring.request.reset()
            nslots = ring.request.try_push(wire)
        self.stats.enqueued_slots += nslots
        cpu.charge("cache_line_transfer")

        # Worker side: find (or steal) the worker for this ring and
        # decide hot vs cold from how long the ring sat idle.
        worker = next((w for w in self._pool if w.ring_key == key), None)
        cold = False
        if worker is None:
            worker = min(self._pool, key=lambda w: w.last_used)
            worker.ring_key = key
            cold = True
            self.stats.worker_reassigns += 1
            self._win_reassigns += 1
            cpu.charge("worker_context_switch")
            if worker.asleep:
                self.stats.wakeups += 1
                self._win_wakeups += 1
                cpu.charge("worker_wakeup")
        else:
            spin_window = self.spin_budget * cm.worker_poll.cycles
            idle_gap = (now - ring.last_service_cycle
                        if ring.last_service_cycle is not None else None)
            if idle_gap is not None and idle_gap <= spin_window and \
                    not worker.asleep:
                # Hot: the worker was still spinning on this ring.  Its
                # wasted poll cycles are CPU-waste accounting, not a
                # charge on the caller.
                self.stats.spin_cycles_wasted += idle_gap
                self._win_waste += idle_gap
                cpu.charge("worker_poll")
            else:
                # The worker exhausted its spin budget and parked.
                if idle_gap is not None:
                    self.stats.spin_cycles_wasted += spin_window
                    self._win_waste += spin_window
                cold = True
                self.stats.wakeups += 1
                self._win_wakeups += 1
                cpu.charge("worker_wakeup")
        if cold:
            self.stats.cold_calls += 1
        else:
            self.stats.hot_calls += 1
        worker.asleep = False
        worker.last_used = self._seq

        cpu.charge("ring_dequeue")
        cpu.perf.charge("copy", cm.copy(len(wire)))
        popped = ring.request.try_pop()
        assert popped is not None and popped[0] == wire
        return now, cold, ring

    def _complete(self, machine, ring: _RingPair, reply_wire: bytes) -> None:
        """Worker enqueues the reply; the spinning caller pops it."""
        cpu = machine.cpu
        cm = cpu.cost_model
        cpu.charge("ring_enqueue")
        cpu.perf.charge("copy", cm.copy(len(reply_wire)))
        if ring.reply.try_push(reply_wire) == 0:
            ring.reply.reset()
            ring.reply.try_push(reply_wire)
        cpu.charge("cache_line_transfer")
        # Caller's successful reply poll + dequeue.
        cpu.charge("worker_poll")
        cpu.charge("ring_dequeue")
        cpu.perf.charge("copy", cm.copy(len(reply_wire)))
        popped = ring.reply.try_pop()
        assert popped is not None
        ring.last_service_cycle = cpu.perf.cycles

    # ------------------------------------------------------------------
    # configless auto-tuning (per modeled-cycle window)
    # ------------------------------------------------------------------

    def _roll_window(self, now: int) -> None:
        if self._win_start is None:
            self._win_start = now
            self._win_seq0 = self._seq
            return
        if now - self._win_start < WINDOW_CYCLES:
            return
        if self._win_calls:
            if self._win_wakeups * 4 >= self._win_calls and \
                    self.spin_budget * 2 <= MAX_SPIN:
                # Cold-heavy window: spin longer before parking.
                self.spin_budget *= 2
                self.stats.spin_grows += 1
            elif self._win_wakeups == 0 and \
                    self._win_waste * 8 >= WINDOW_CYCLES and \
                    self.spin_budget // 2 >= MIN_SPIN:
                # Pure waste, no wakeups: spinning far too long.
                self.spin_budget //= 2
                self.stats.spin_shrinks += 1
            if self._win_reassigns * 2 >= self._win_calls and \
                    len(self._pool) < MAX_WORKERS:
                # Workers thrash between rings: add one.
                self._pool.append(_Worker(len(self._pool)))
                self.stats.worker_grows += 1
            elif self._win_reassigns == 0 and len(self._pool) > 1:
                idle = [w for w in self._pool
                        if w.last_used <= self._win_seq0]
                if idle:
                    self._pool.remove(min(idle, key=lambda w: w.last_used))
                    self.stats.worker_shrinks += 1
        self._win_start = now
        self._win_seq0 = self._seq
        self._win_calls = 0
        self._win_wakeups = 0
        self._win_reassigns = 0
        self._win_waste = 0

    # ------------------------------------------------------------------
    # flips
    # ------------------------------------------------------------------

    def _on_flip(self, to_mechanism: str) -> None:
        if to_mechanism == "switchless":
            self.stats.flips_to_switchless += 1
        else:
            self.stats.flips_to_world_call += 1
