"""The world-call runtime: the software half of CrossOver.

Implements the protocol of Section 3.3 around the hardware
``world_call`` instruction:

* **caller side** — saves running state onto the caller's own stack
  (kept in its memory, isolated from the callee), records the expected
  callee WID, marshals parameters (registers if small, shared-memory
  channel otherwise), issues ``world_call``, and on return verifies
  call/return control-flow integrity before restoring state;
* **callee side** — authorizes the hardware-delivered caller WID
  against its policy, reloads its service process so the guest OS
  scheduler stays consistent (Section 5.3), runs the entry handler,
  marshals the result, and issues the returning ``world_call``;
* **failure handling** — remote errno errors are marshaled back and
  re-raised at the caller; a hung callee is recovered through the
  hypervisor watchdog (Section 3.4);
* **graceful degradation** — faulted ``world_call`` transitions are
  recovered by bounded retry after hypervisor re-validation, and when
  the callee's world really is gone the call degrades to the legacy
  vmcall/trap redirection path (the pre-CrossOver mechanism) instead of
  failing, governed by :class:`RecoveryConfig`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro import faults as _faults
from repro import observe
from repro import switchless as _switchless
from repro.core import convention, fastpath
from repro.core.binding import BindingTable
from repro.core.channel import Channel, next_channel_gva
from repro.core.world import World, WorldRegistry
from repro.errors import (
    AuthorizationDenied,
    CalleeHang,
    CallTimeout,
    ConfigurationError,
    ControlFlowViolation,
    GuestOSError,
    NoSuchWorld,
    SimulationError,
    WorldCallError,
    WorldCallFault,
    WorldNotPresent,
)
from repro.hw import fused
from repro.hw.costs import Cost
from repro.hw.cpu import Mode, WID_REGISTER
from repro.observe import Event


@dataclass
class CallRequest:
    """What a callee's entry handler receives."""

    caller_wid: int
    payload: Any
    service: Optional[str] = None


#: The three call mechanisms the dispatch seam routes: the legacy
#: trap redirection, the paper's VMFUNC ``world_call``, and a
#: :mod:`repro.switchless` worker context.
MECHANISMS = ("baseline", "world_call", "switchless")

#: Section 5.3 scheduler-awareness: cost of reloading the service
#: process state when a world call lands in a kernel world.
_SCHED_RELOAD = Cost(15, 50)

#: Sentinel: "no pre-decoded payload available, decode the wire".
#: Distinct from ``None`` because ``None`` is a legitimate payload.
_NO_PAYLOAD = object()


def publish_authorization(caller_wid: int, callee_wid: int, decision: str,
                          detail: str = "") -> None:
    """Publish the callee's software authorization decision over the
    *presented* caller WID (which a compromised software layer may have
    forged — audit detectors compare it against the hardware-delivered
    WIDs of the ``hw``/``world_call`` records)."""
    observers = observe.observers
    if observers is not None:
        observe.publish(observers, Event(
            "core", "authorization", caller_wid=caller_wid,
            callee_wid=callee_wid, decision=decision, detail=detail))


@dataclass
class RecoveryConfig:
    """Which graceful-degradation policies the runtime may use.

    Every knob defaults to on; fault-campaign tests switch individual
    policies off to prove the resilience gate can actually fail.
    """

    #: Bounded retries of a faulted call after hypervisor re-validation.
    max_retries: int = 2
    #: Re-validate + heal a world entry on ``WorldNotPresent``.
    revalidate: bool = True
    #: Service WT/IWT cache misses by refilling via ``manage_wtc``
    #: (off: the raw :class:`WorldTableCacheMiss` escapes to software).
    wtc_refill: bool = True
    #: Fall back to the legacy vmcall/trap path when the callee's world
    #: is unrecoverable by retry.
    legacy_fallback: bool = True
    #: Retry the watchdog-arming hypercall once if the handler rejects.
    hypercall_retry: bool = True


class WorldCallRuntime:
    """Software support for cross-world calls on one machine."""

    def __init__(self, machine, registry: Optional[WorldRegistry] = None, *,
                 binding_table: Optional[BindingTable] = None) -> None:
        self.machine = machine
        self.registry = registry if registry is not None else WorldRegistry(
            machine)
        self.binding_table = binding_table
        self._channels: Dict[Tuple[int, int], Channel] = {}
        self.calls_completed = 0
        self.recovery = RecoveryConfig()
        #: Recovery-policy activations: policy name -> count.
        self.recoveries: Counter = Counter()
        #: Calls completed over the legacy vmcall/trap fallback path.
        self.legacy_calls = 0
        #: The fast path's fixed caller- and callee-side entry charges,
        #: fused once for this machine's cost model.
        self._caller_entry = fused.world_call_caller_entry(
            machine.cost_model)
        self._callee_entry = fused.world_call_callee_entry(
            machine.cost_model, sched_reload=_SCHED_RELOAD)

    # ------------------------------------------------------------------
    # setup (one-time, Section 3.3 "World-call setup")
    # ------------------------------------------------------------------

    def setup_channel(self, a: World, b: World, pages: int = 1) -> Channel:
        """Create the shared parameter/return area between two worlds.

        "Such mapping may require vmcalls or syscalls, but it is a
        one-time effort."  Charged as a hypercall when issued from a
        guest context.
        """
        cpu = self.machine.cpu
        hypervisor = self.machine.hypervisor
        vms = [w.entry.owner_vm for w in (a, b)
               if w.entry.owner_vm is not None]
        if cpu.mode is Mode.NON_ROOT:
            region = hypervisor.hypercall(
                cpu, 0x20, self._peer_vm_name(a, b), pages, "world-channel")
        else:
            region = hypervisor.create_shared_region(vms, pages,
                                                     "world-channel")
        gva = next_channel_gva(pages)
        channel = Channel(region, gva)
        for world in (a, b):
            channel.map_into(world.entry.page_table,
                             user=world.entry.ring == 3)
        self._channels[(a.wid, b.wid)] = channel
        self._channels[(b.wid, a.wid)] = channel
        return channel

    def _peer_vm_name(self, a: World, b: World) -> str:
        for world in (b, a):
            if world.entry.owner_vm is not None:
                return world.entry.owner_vm.name
        raise SimulationError("channel setup needs at least one guest world")

    def channel_between(self, a: World, b: World) -> Optional[Channel]:
        """The channel two worlds share, if one was set up."""
        return self._channels.get((a.wid, b.wid))

    def arm_watchdog(self, caller: World, budget_cycles: int = 10_000_000
                     ) -> None:
        """Arm the callee-DoS watchdog for ``caller`` (Section 3.4).

        Requires a hypervisor round trip, so callers arm "a relatively
        long timer for multiple world-calls to amortize the overhead".
        From guest CPL 0 this is the ``SET_TIMEOUT`` hypercall; if the
        handler rejects the request, the round trip is retried once
        (``RecoveryConfig.hypercall_retry``) before the error escapes.
        """
        from repro.hypervisor.hypercalls import Hypercall

        cpu = self.machine.cpu
        hypervisor = self.machine.hypervisor
        if cpu.mode is Mode.NON_ROOT and cpu.ring == 0:
            attempts = 2 if self.recovery.hypercall_retry else 1
            for attempt in range(attempts):
                try:
                    hypervisor.hypercall(cpu, Hypercall.SET_TIMEOUT,
                                         caller.entry, budget_cycles)
                    break
                except GuestOSError:
                    if attempt + 1 >= attempts:
                        raise
                    self.recoveries["hypercall_retry"] += 1
                    observe.emit("core", "recovery", detail="hypercall_retry")
        else:
            cpu.charge("timer_program")
            hypervisor.armed_timeouts[cpu.cpu_id] = (caller.entry,
                                                     budget_cycles)
        caller.watchdog_armed = True
        caller.watchdog_budget = budget_cycles

    # ------------------------------------------------------------------
    # the call itself
    # ------------------------------------------------------------------

    def call(self, caller: World, callee_wid: int, payload: Any = None, *,
             authorize: bool = True,
             mechanism: Optional[str] = None) -> Any:
        """Perform one complete cross-world call and return its result.

        ``authorize=False`` runs the Section 7.2 minimal-instrumentation
        mode: the callee's software authorization *and* the scheduler
        state reload are skipped ("stacks are all pre-allocated ...
        software didn't authenticate the caller during this
        evaluation").  It is also the right setting when authorization
        is delegated to the hardware binding table.

        ``mechanism`` selects the call mechanism per site:
        ``"world_call"`` (the default CrossOver path), ``"baseline"``
        (the legacy vmcall/trap redirection), or ``"switchless"`` (a
        worker context in the callee world services the request over a
        shared-memory ring — needs an installed
        :mod:`repro.switchless` engine).  With ``mechanism=None`` and
        an engine installed, the engine's adaptive policy decides.
        """
        engine = _switchless._engine
        if engine is not None and mechanism is None:
            mechanism = engine.select("world", caller.wid, callee_wid,
                                      self.machine.cpu.perf.cycles)
        if mechanism is not None and mechanism != "world_call":
            return self._call_mechanism(mechanism, caller, callee_wid,
                                        payload, authorize=authorize)
        return self._call_guarded(caller, callee_wid, payload,
                                  authorize=authorize)

    def _call_mechanism(self, mechanism: str, caller: World,
                        callee_wid: int, payload: Any, *,
                        authorize: bool) -> Any:
        """Route an explicitly (or policy-) selected mechanism."""
        if mechanism == "switchless":
            engine = _switchless._engine
            if engine is None:
                raise ConfigurationError(
                    "mechanism='switchless' needs an installed engine; "
                    "run under repro.switchless.scoped(SwitchlessEngine())")
            return engine.world_call(self, caller, callee_wid, payload,
                                     authorize=authorize)
        if mechanism == "baseline":
            if not self._legacy_available(caller, callee_wid):
                raise ConfigurationError(
                    "mechanism='baseline' needs guest worlds with a "
                    "registered handler and a CPU in guest mode")
            return self._legacy_call(caller, callee_wid, payload,
                                     authorize=authorize)
        raise ConfigurationError(
            f"unknown call mechanism {mechanism!r}; expected one of "
            f"{MECHANISMS}")

    def _call_guarded(self, caller: World, callee_wid: int, payload: Any, *,
                      authorize: bool) -> Any:
        """Armed-timeout bookkeeping around one call.

        The long watchdog timer is armed once and amortized across many
        calls (Section 3.4), but the *bookkeeping* entry in
        ``hypervisor.armed_timeouts`` must never outlive the call it
        covered: a stale entry pointing at a popped caller frame is a
        leak (and a confusion hazard for nested calls).  So the entry is
        (re)installed per call while the timer stands, and removed on
        every exit — normal return, marshaled error, or fault unwind.
        """
        cpu = self.machine.cpu
        hypervisor = self.machine.hypervisor
        if caller.watchdog_armed and \
                cpu.cpu_id not in hypervisor.armed_timeouts:
            # Pure bookkeeping — the hardware timer armed earlier still
            # stands, so no hypervisor round trip is charged.
            hypervisor.armed_timeouts[cpu.cpu_id] = (
                caller.entry, caller.watchdog_budget)
        # The observers are read once so the begin/end bracket always
        # lands in the same ones even if an observer is swapped mid-call.
        observers = observe.observers
        if observers is not None:
            observe.publish(observers, Event(
                "core", "call_begin", caller_wid=caller.wid,
                callee_wid=callee_wid, cycles=cpu.perf.cycles, ref=cpu))
        outcome = "ok"
        try:
            return self._call_recoverable(caller, callee_wid, payload,
                                          authorize=authorize)
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            armed = hypervisor.armed_timeouts.get(cpu.cpu_id)
            if armed is not None and armed[0] is caller.entry:
                del hypervisor.armed_timeouts[cpu.cpu_id]
            if observers is not None:
                observe.publish(observers, Event(
                    "core", "call_end", caller_wid=caller.wid,
                    callee_wid=callee_wid, detail=outcome,
                    cycles=cpu.perf.cycles, ref=cpu))

    def _call_recoverable(self, caller: World, callee_wid: int,
                          payload: Any, *, authorize: bool) -> Any:
        """Bounded-retry / legacy-fallback wrapper around :meth:`_call`.

        A ``world_call`` that faults on the *issue* transition leaves
        the caller fully unwound (see :meth:`_call`), so it is safe to
        retry after the hypervisor re-validates the callee's entry, or
        to re-route the same payload over the legacy vmcall/trap path.
        """
        worlds = self.machine.hypervisor.worlds
        retries = 0
        while True:
            try:
                return self._call(caller, callee_wid, payload,
                                  authorize=authorize)
            except WorldNotPresent:
                if self.recovery.revalidate and \
                        retries < self.recovery.max_retries and \
                        worlds.revalidate(self.machine.cpu, callee_wid):
                    retries += 1
                    self.recoveries["revalidate"] += 1
                    observe.emit("core", "recovery", detail="revalidate")
                    continue
                if self._legacy_available(caller, callee_wid):
                    self.recoveries["legacy_fallback"] += 1
                    observe.emit("core", "recovery", detail="legacy_fallback")
                    return self._legacy_call(caller, callee_wid, payload,
                                             authorize=authorize)
                raise
            except NoSuchWorld:
                # The world is gone from the table itself; re-validation
                # cannot help, only the legacy path can.
                if self._legacy_available(caller, callee_wid):
                    self.recoveries["legacy_fallback"] += 1
                    observe.emit("core", "recovery", detail="legacy_fallback")
                    return self._legacy_call(caller, callee_wid, payload,
                                             authorize=authorize)
                raise

    def _call(self, caller: World, callee_wid: int, payload: Any, *,
              authorize: bool) -> Any:
        cpu = self.machine.cpu
        if not caller.matches_cpu(cpu):
            raise SimulationError(
                f"CPU is not executing in caller world {caller.label} "
                f"(currently {cpu.world_label})")

        if self.binding_table is not None:
            self.binding_table.check(cpu, caller.wid, callee_wid)

        if _faults._engine is not None:
            _faults._engine.fire("core.call.pre", runtime=self,
                                 caller=caller, callee_wid=callee_wid,
                                 payload=payload)

        if _faults._engine is None:
            # One content walk yields both the wire bytes and the fresh
            # copy the callee receives; the fault engine needs the
            # decode kept separate so it can poison the wire in flight.
            wire, decoded = convention.roundtrip(payload)
        else:
            wire = convention.encode(payload)
            decoded = _NO_PAYLOAD
        in_registers = convention.fits_registers(wire)
        channel = self._channels.get((caller.wid, callee_wid))
        if not in_registers and channel is None:
            raise WorldCallError(
                f"payload of {len(wire)}B needs a shared-memory channel; "
                "call setup_channel() first")

        # Caller saves its running state in its own memory space.
        fast = fastpath.enabled() and not cpu.trace.enabled
        if fast:
            self._caller_entry.apply(cpu.perf)
        else:
            cpu.charge("world_save_state")
        caller.call_stack.append({
            "expected_callee": callee_wid,
            "regs": cpu.regs.snapshot(),
            "kernel_current": (caller.kernel.current
                               if caller.kernel is not None else None),
        })
        if not fast:
            cpu.charge("world_param_setup")
        if not in_registers:
            assert channel is not None
            channel.write_payload(cpu, self.machine.memory, wire)

        try:
            delivered_caller_wid = self._world_call_hw(cpu, callee_wid)
        except WorldCallFault:
            # The transition never happened: the CPU is still in the
            # caller's world.  Unwind the frame pushed above so the
            # caller is exactly as before the call, then let the fault
            # reach the retry/fallback layer.
            cpu.charge("world_restore_state")
            self._unwind_caller(caller)
            raise

        # --- CPU is now in the callee's context -----------------------
        presented_wid = delivered_caller_wid
        if _faults._engine is not None:
            forged = _faults._engine.fire("core.call.present", runtime=self,
                                          caller=caller,
                                          caller_wid=delivered_caller_wid)
            if forged is not None:
                presented_wid = forged
        callee = self.registry.get(callee_wid)
        try:
            result = self._run_callee(callee, callee_wid,
                                      presented_wid, wire,
                                      in_registers, channel, authorize,
                                      decoded=decoded)
        except CalleeHang:
            return self._recover_from_hang(caller, callee)

        try:
            if _faults._engine is None:
                result_wire, result_value = convention.roundtrip(result)
            else:
                result_wire = convention.encode(result)
                result_value = _NO_PAYLOAD
            result_in_regs = convention.fits_registers(result_wire)
            if not result_in_regs and channel is None:
                raise WorldCallError(
                    f"result of {len(result_wire)}B needs a channel")
        except (WorldCallError, SimulationError):
            # Result marshaling failed with the CPU still in the
            # callee's context and the caller's frame still on its call
            # stack.  Unwind through the normal return transition so the
            # caller world is left exactly as before the call, then let
            # the error propagate.
            self._world_call_hw(cpu, delivered_caller_wid)
            cpu.charge("world_restore_state")
            self._unwind_caller(caller)
            raise
        if not result_in_regs:
            cpu.charge("world_param_setup")
            channel.write_payload(cpu, self.machine.memory, result_wire)

        # The callee returns by issuing world_call back to the caller.
        if _faults._engine is not None:
            _faults._engine.fire("core.call.return", runtime=self,
                                 caller=caller, callee_wid=callee_wid)
        try:
            self._world_call_hw(cpu, delivered_caller_wid)
        except WorldCallFault as fault:
            self._recover_return(caller, delivered_caller_wid, fault)

        # --- back in the caller ----------------------------------------
        returned_from = cpu.regs.gprs[WID_REGISTER]
        cpu.perf.charge("world_restore_state",
                        cpu.cost_model.world_restore_state)
        saved = caller.call_stack.pop()
        if returned_from != saved["expected_callee"]:
            raise ControlFlowViolation(
                f"world call to {saved['expected_callee']} returned from "
                f"world {returned_from}")
        cpu.regs.restore(saved["regs"])
        if caller.kernel is not None and saved["kernel_current"] is not None:
            caller.kernel.current = saved["kernel_current"]

        if not result_in_regs:
            assert channel is not None
            result_wire = channel.read_payload(cpu, self.machine.memory)
            value = convention.decode(result_wire)
        elif result_value is _NO_PAYLOAD:
            value = convention.decode(result_wire)
        else:
            value = result_value
        if isinstance(value, GuestOSError):
            raise value
        if isinstance(value, tuple) and len(value) == 2 and \
                value[0] == "__denied__":
            raise AuthorizationDenied(caller.wid, value[1])
        if isinstance(value, tuple) and len(value) == 2 and \
                value[0] == "__wcerr__":
            raise WorldCallError(value[1])
        self.calls_completed += 1
        return value

    # ------------------------------------------------------------------
    # recovery helpers (graceful degradation)
    # ------------------------------------------------------------------

    def _world_call_hw(self, cpu, wid: int) -> int:
        """One hardware ``world_call`` via the hypervisor's miss loop.

        With the WT-refill policy off, cache misses are not serviced and
        escape raw — the degenerate mode fault-campaign tests use to
        prove the resilience gate can fail.
        """
        max_services = 4 if self.recovery.wtc_refill else 0
        return self.machine.hypervisor.worlds.world_call(
            cpu, wid, max_services=max_services)

    def _unwind_caller(self, caller: World) -> None:
        """Pop the caller's top frame and restore its saved state."""
        cpu = self.machine.cpu
        saved = caller.call_stack.pop()
        cpu.regs.restore(saved["regs"])
        if caller.kernel is not None and saved["kernel_current"] is not None:
            caller.kernel.current = saved["kernel_current"]

    def _recover_return(self, caller: World, caller_wid: int,
                        fault: WorldCallFault) -> None:
        """The *returning* ``world_call`` faulted (e.g. the caller's
        world was revoked mid-call).

        The handler already ran, so retrying the whole call would
        execute it twice; instead the return transition alone is
        retried after re-validation.  If that also fails, the
        hypervisor forcibly restores the caller's world (the same
        privileged path the watchdog uses) so caller state still fully
        unwinds, and the call is reported failed.
        """
        cpu = self.machine.cpu
        worlds = self.machine.hypervisor.worlds
        if self.recovery.revalidate and worlds.revalidate(cpu, caller_wid):
            try:
                worlds.world_call(cpu, caller_wid)
                self.recoveries["revalidate_return"] += 1
                observe.emit("core", "recovery", detail="revalidate_return")
                return
            except WorldCallFault as second:
                fault = second
        # Trap to the hypervisor for a privileged restore of the caller.
        cpu.charge("vmexit")
        cpu.charge("vmexit_handle")
        caller.entry.present = True
        self.machine.hypervisor.restore_world(cpu, caller.entry)
        self._unwind_caller(caller)
        self.recoveries["forced_restore"] += 1
        observe.emit("core", "recovery", detail="forced_restore")
        raise WorldCallError(
            f"world call return path failed ({fault}); caller restored "
            "by the hypervisor")

    def _legacy_available(self, caller: World, callee_wid: int) -> bool:
        """Whether the legacy vmcall/trap path can serve this call."""
        if not self.recovery.legacy_fallback:
            return False
        callee = self.registry.get(callee_wid)
        return (callee is not None
                and callee.handler is not None
                and caller.entry.owner_vm is not None
                and callee.entry.owner_vm is not None
                and self.machine.cpu.mode is Mode.NON_ROOT)

    def _legacy_call(self, caller: World, callee_wid: int, payload: Any, *,
                     authorize: bool) -> Any:
        """The pre-CrossOver redirection path, used as a fallback.

        Models the baseline mechanism the paper compares against: the
        caller vmcalls out, the hypervisor injects a virtual interrupt
        into the callee's VM and enters it, the handler runs there, and
        a second exit/entry pair brings the result back.  Much more
        expensive than ``world_call`` (two full world-switch round
        trips) but it works without a live world-table entry.
        """
        from repro.hw.vmx import ExitReason
        from repro.hypervisor.injection import VECTOR_SYSCALL_REDIRECT

        cpu = self.machine.cpu
        hypervisor = self.machine.hypervisor
        callee = self.registry.get(callee_wid)
        assert callee is not None     # _legacy_available checked
        caller_vm = caller.entry.owner_vm
        callee_vm = callee.entry.owner_vm

        cpu.vmexit(ExitReason.VMCALL, "world_call legacy fallback")
        cpu.charge("vmexit_handle")
        hypervisor.injector.inject(cpu, callee_vm, VECTOR_SYSCALL_REDIRECT,
                                   "legacy world call")
        hypervisor.launch(cpu, callee_vm, "deliver legacy world call")
        if cpu.ring != 0:
            cpu.syscall_trap("legacy world-call entry")

        outcome: Any = None
        error: Optional[Exception] = None
        if callee.busy:
            error = WorldCallError(
                f"concurrent world call into {callee.label} "
                "(not supported; Section 5.3)")
        else:
            callee.busy = True
            saved_current = None
            try:
                if callee.kernel is not None:
                    saved_current = callee.kernel.current
                    if callee.process is not None:
                        callee.kernel.current = callee.process
                    if authorize:
                        cpu.perf.charge("sched_reload", _SCHED_RELOAD)
                if authorize:
                    cpu.charge("world_authorize")
                    try:
                        callee.policy.check(caller.wid)
                        publish_authorization(caller.wid, callee_wid,
                                              "allow")
                    except AuthorizationDenied as denied:
                        publish_authorization(caller.wid, callee_wid,
                                              "deny",
                                              denied.detail or str(denied))
                        error = denied
                if error is None:
                    request = CallRequest(
                        caller_wid=caller.wid, payload=payload,
                        service=callee.policy.service_for(caller.wid))
                    try:
                        outcome = callee.handler(request)
                    except (GuestOSError, AuthorizationDenied,
                            WorldCallError) as err:
                        error = err
            finally:
                callee.busy = False
                if callee.kernel is not None:
                    callee.kernel.current = saved_current

        cpu.vmexit(ExitReason.VMCALL, "legacy world call done")
        cpu.charge("vmexit_handle")
        hypervisor.launch(cpu, caller_vm, "resume after legacy world call")

        self.legacy_calls += 1
        if error is not None:
            raise error
        return outcome

    # ------------------------------------------------------------------
    # callee side
    # ------------------------------------------------------------------

    def _run_callee(self, callee: Optional[World], callee_wid: int,
                    caller_wid: int, wire: bytes, in_registers: bool,
                    channel: Optional[Channel], authorize: bool,
                    decoded: Any = _NO_PAYLOAD) -> Any:
        cpu = self.machine.cpu
        if callee is None:
            raise SimulationError(
                f"world {callee_wid} exists in hardware but has no "
                "registered software handler")
        if callee.handler is None:
            raise SimulationError(f"{callee.label} has no entry handler")
        if callee.busy:
            # Reported to the caller as an error result so its context
            # is restored by the normal return path (Section 5.3: one
            # outstanding call per world).
            return ("__wcerr__",
                    f"concurrent world call into {callee.label} "
                    "(not supported; Section 5.3)")
        callee.busy = True
        saved_current = None
        fast = fastpath.enabled() and not cpu.trace.enabled
        try:
            # Section 5.3: make the callee OS aware of the world switch
            # (skipped, like authorization, in minimal mode).
            fused_entry = False
            if callee.kernel is not None:
                saved_current = callee.kernel.current
                if callee.process is not None:
                    callee.kernel.current = callee.process
                if authorize and fast:
                    self._callee_entry.apply(cpu.perf)
                    fused_entry = True
                elif authorize:
                    cpu.perf.charge("sched_reload", _SCHED_RELOAD)
            if authorize:
                if not fused_entry:
                    cpu.charge("world_authorize")
                try:
                    if _faults._engine is not None:
                        _faults._engine.fire("core.call.authorize",
                                             runtime=self, callee=callee,
                                             caller_wid=caller_wid)
                    callee.policy.check(caller_wid)
                except AuthorizationDenied as denied:
                    publish_authorization(caller_wid, callee_wid, "deny",
                                          denied.detail or str(denied))
                    return ("__denied__", denied.detail or str(denied))
                publish_authorization(caller_wid, callee_wid, "allow")
            if in_registers:
                payload = (convention.decode(wire)
                           if decoded is _NO_PAYLOAD else decoded)
            else:
                assert channel is not None
                payload = convention.decode(
                    channel.read_payload(cpu, self.machine.memory))
            request = CallRequest(
                caller_wid=caller_wid, payload=payload,
                service=callee.policy.service_for(caller_wid))
            try:
                if _faults._engine is not None:
                    _faults._engine.fire("core.call.handler", runtime=self,
                                         callee=callee, request=request)
                return callee.handler(request)
            except CalleeHang:
                raise        # handled by the watchdog path in call()
            except GuestOSError as err:
                return err   # marshaled back, re-raised at the caller
            except AuthorizationDenied as denied:
                # Handlers may refuse at a finer granularity than the
                # entry policy (e.g. per-service); the refusal travels
                # back like a policy denial so the caller's context is
                # restored properly.
                return ("__denied__", denied.detail or str(denied))
            except WorldCallError as err:
                # A failure of a *nested* call the handler made (busy
                # peer, missing channel): report it to our caller with
                # its context intact rather than unwinding raw.
                return ("__wcerr__", str(err))
        finally:
            callee.busy = False
            if callee.kernel is not None:
                callee.kernel.current = saved_current

    # ------------------------------------------------------------------
    # watchdog recovery
    # ------------------------------------------------------------------

    def _recover_from_hang(self, caller: World, callee: Optional[World]
                           ) -> Any:
        cpu = self.machine.cpu
        if not caller.watchdog_armed:
            raise WorldCallError(
                f"callee {callee.label if callee else '?'} never returned "
                "and no watchdog was armed: the caller is wedged")
        self.machine.hypervisor.fire_world_call_timeout(cpu)
        # Full caller-state unwind: the frame, registers and the guest
        # OS's current-process pointer all roll back to pre-call state.
        self._unwind_caller(caller)
        caller.watchdog_armed = False
        self.recoveries["watchdog_timeout"] += 1
        observe.emit("core", "recovery", detail="watchdog_timeout")
        raise CallTimeout(
            f"world call from {caller.label} cancelled by the hypervisor "
            "watchdog")
