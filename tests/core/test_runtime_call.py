"""World-call runtime tests: the full software protocol of Section 3.3."""

import copy

import pytest

from repro import observe
from repro import switchless as sl
from repro.core.authorization import AllowListPolicy
from repro.core.call import CallRequest, WorldCallRuntime
from repro.core.world import WorldRegistry
from repro.errors import (
    AuthorizationDenied,
    CalleeHang,
    CallTimeout,
    ControlFlowViolation,
    GuestOSError,
    SimulationError,
    WorldCallError,
)
from repro.hw.costs import FEATURES_CROSSOVER
from repro.switchless import SwitchlessEngine
from repro.testbed import build_two_vm_machine, enter_vm_kernel


class Harness:
    """Two kernel worlds with a runtime, channel, and an echo handler."""

    def __init__(self, handler=None, policy=None):
        (self.machine, self.vm1, self.k1,
         self.vm2, self.k2) = build_two_vm_machine(
            features=FEATURES_CROSSOVER)
        self.registry = WorldRegistry(self.machine)
        self.runtime = WorldCallRuntime(self.machine, self.registry)
        self.executor = self.k2.spawn("executor")
        self.handler_log = []

        def default_handler(request: CallRequest):
            self.handler_log.append(request)
            name, *args = request.payload
            if name == "echo":
                return tuple(args)
            if name == "hang":
                raise CalleeHang("never returns")
            return self.k2.syscalls.invoke(self.executor, name, *args)

        enter_vm_kernel(self.machine, self.vm1)
        self.caller = self.registry.create_kernel_world(self.k1)
        enter_vm_kernel(self.machine, self.vm2)
        self.callee = self.registry.create_kernel_world(
            self.k2, handler=handler or default_handler, policy=policy,
            service_process=self.executor)
        enter_vm_kernel(self.machine, self.vm1)
        self.runtime.setup_channel(self.caller, self.callee, pages=8)
        self.to_caller_context()

    def to_caller_context(self):
        enter_vm_kernel(self.machine, self.vm1)
        self.machine.cpu.write_cr3(self.k1.master_page_table)

    def call(self, *payload, **kwargs):
        return self.runtime.call(self.caller, self.callee.wid,
                                 tuple(payload), **kwargs)


@pytest.fixture
def harness():
    return Harness()


class TestBasicCalls:
    def test_echo_roundtrip(self, harness):
        assert harness.call("echo", 1, "two") == (1, "two")
        assert harness.runtime.calls_completed == 1

    def test_cpu_returns_to_caller_world(self, harness):
        harness.call("echo")
        assert harness.caller.matches_cpu(harness.machine.cpu)

    def test_handler_receives_caller_wid(self, harness):
        harness.call("echo")
        assert harness.handler_log[0].caller_wid == harness.caller.wid

    def test_remote_syscall_executes_in_callee_vm(self, harness):
        pid = harness.call("getpid")
        assert pid == harness.executor.pid

    def test_remote_errno_reraised_at_caller(self, harness):
        with pytest.raises(GuestOSError) as exc:
            harness.call("open", "/tmp/nothing", "r")
        assert exc.value.errno == 2
        assert harness.caller.matches_cpu(harness.machine.cpu)

    def test_large_payload_through_channel(self, harness):
        blob = bytes(range(256)) * 40     # 10 KiB
        result = harness.call("echo", blob)
        assert result == (blob,)

    def test_large_payload_without_channel_rejected(self, harness):
        stranger = harness.registry.create_host_kernel_world(
            handler=lambda r: None)
        with pytest.raises(WorldCallError):
            harness.runtime.call(harness.caller, stranger.wid,
                                 ("echo", b"x" * 4096))

    def test_call_from_wrong_context_rejected(self, harness):
        enter_vm_kernel(harness.machine, harness.vm2)
        with pytest.raises(SimulationError):
            harness.call("echo")

    def test_call_stack_balanced(self, harness):
        harness.call("echo")
        assert harness.caller.call_stack == []

    def test_scheduler_state_restored(self, harness):
        """Section 5.3: the callee kernel's current process is reloaded
        for the handler and restored afterwards."""
        sentinel = harness.k2.spawn("sentinel")
        harness.k2.current = sentinel
        seen = []
        original = harness.callee.handler

        def spying(request):
            seen.append(harness.k2.current)
            return original(request)

        harness.callee.handler = spying
        harness.call("echo")
        assert seen == [harness.executor]
        assert harness.k2.current is sentinel


class _Collector:
    """A bare bus observer that keeps every record."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def _mutating_handler(request):
    request.payload[1].append("from callee")
    return len(request.payload[1])


def _refusing_handler(request):
    raise AuthorizationDenied(request.caller_wid + 1, "per-service refusal")


#: case -> (payload, handler or None for the echo/syscall default,
#: expected outcome).  ``"caller"`` stands for the caller's WID.
_AGREEMENT_CASES = {
    "argument_copy": (("mutate", [1, 2]), _mutating_handler, ("ok", 3)),
    "remote_errno": (("open", "/tmp/nothing", "r"), None,
                     ("GuestOSError", 2)),
    "handler_refusal": (("echo",), _refusing_handler,
                        ("AuthorizationDenied", "caller",
                         "per-service refusal")),
    "busy_callee": (("echo",), None, ("WorldCallError",)),
    "echoed_denied_tuple": (("echo", "__denied__", "x"), None,
                            ("ok", ("__denied__", "x"))),
    "echoed_wcerr_tuple": (("echo", "__wcerr__", "x"), None,
                           ("ok", ("__wcerr__", "x"))),
}


def _outcome(call):
    """What a caller observes: ``("ok", value)`` or the error's type
    with the fields a caller can act on."""
    try:
        return ("ok", call())
    except GuestOSError as err:
        return ("GuestOSError", err.errno)
    except AuthorizationDenied as err:
        return ("AuthorizationDenied", err.caller_wid, err.detail)
    except WorldCallError as err:
        return (type(err).__name__,)


_TRACED = pytest.mark.parametrize("traced", [False, True],
                                  ids=["untraced", "traced"])
_MECHANISMS = pytest.mark.parametrize(
    "mechanism", ["baseline", "world_call", "switchless"])


class TestAuthorization:
    @_TRACED
    @_MECHANISMS
    def test_denied_caller(self, mechanism, traced):
        """The protected path: a caller outside the allow list is refused
        under every call mechanism, traced or not — the handler never
        runs, the caller is left as it was, and exactly one ``deny``
        decision is published."""
        harness = Harness(policy=AllowListPolicy())   # empty allow list
        cpu = harness.machine.cpu
        cpu.trace.enabled = traced
        engine = (SwitchlessEngine(force=True)
                  if mechanism == "switchless" else None)
        collector = _Collector()
        with sl.scoped(engine), observe.scoped("audit", collector), \
                pytest.raises(AuthorizationDenied):
            harness.call("echo", mechanism=mechanism)
        assert harness.handler_log == []
        assert harness.caller.call_stack == []
        assert harness.caller.matches_cpu(cpu)
        decisions = [e.decision for e in collector.events
                     if e.kind == "authorization"]
        assert decisions == ["deny"], decisions

    @pytest.mark.parametrize("case", sorted(_AGREEMENT_CASES))
    @_TRACED
    @_MECHANISMS
    def test_mechanisms_agree(self, mechanism, traced, case):
        """Every mechanism runs the one callee half, so a caller sees the
        same outcome under each: its arguments are copied, a remote
        errno and a handler's own refusal (naming the caller's WID)
        re-raise, a busy callee is a ``WorldCallError``, and a result
        that merely looks like an error tag comes back as data.  The
        caller is left as it was either way."""
        payload, handler, expected = copy.deepcopy(_AGREEMENT_CASES[case])
        harness = Harness(handler=handler)
        cpu = harness.machine.cpu
        cpu.trace.enabled = traced
        harness.callee.busy = case == "busy_callee"
        engine = (SwitchlessEngine(force=True)
                  if mechanism == "switchless" else None)
        with sl.scoped(engine):
            outcome = _outcome(
                lambda: harness.call(*payload, mechanism=mechanism))
        if expected[1:2] == ("caller",):
            expected = (expected[0], harness.caller.wid) + expected[2:]
        assert outcome == expected
        if case == "argument_copy":
            assert payload[1] == [1, 2]
        assert harness.callee.busy == (case == "busy_callee")
        assert harness.caller.call_stack == []
        assert harness.caller.matches_cpu(cpu)

    @_TRACED
    @_MECHANISMS
    def test_hung_callee_resumes_caller(self, mechanism, traced):
        """A callee that never returns fails the call under every
        mechanism and the CPU is back in the caller's world either way:
        the watchdog cancels a ``world_call``, the redirect frame
        resumes the caller before the hang surfaces, and the switchless
        worker reports it over the reply ring as a plain
        ``WorldCallError``."""
        harness = Harness()
        cpu = harness.machine.cpu
        cpu.trace.enabled = traced
        harness.runtime.arm_watchdog(harness.caller)
        engine = (SwitchlessEngine(force=True)
                  if mechanism == "switchless" else None)
        expected = {"world_call": CallTimeout, "baseline": CalleeHang,
                    "switchless": WorldCallError}[mechanism]
        with sl.scoped(engine), pytest.raises(WorldCallError) as raised:
            harness.call("hang", mechanism=mechanism)
        assert raised.type is expected
        assert not harness.callee.busy
        assert harness.caller.call_stack == []
        assert harness.caller.matches_cpu(cpu)
        with sl.scoped(engine):
            assert harness.call("echo", 1, mechanism=mechanism) == (1,)

    @_TRACED
    @_MECHANISMS
    def test_one_authorization_record_per_call(self, mechanism, traced):
        policy = AllowListPolicy()
        harness = Harness(policy=policy)
        policy.grant(harness.caller.wid)
        harness.machine.cpu.trace.enabled = traced
        engine = (SwitchlessEngine(force=True)
                  if mechanism == "switchless" else None)
        collector = _Collector()
        with sl.scoped(engine), observe.scoped("audit", collector):
            for value in range(3):
                assert harness.call("echo", value,
                                    mechanism=mechanism) == (value,)
        decisions = [(e.decision, e.caller_wid) for e in collector.events
                     if e.kind == "authorization"]
        assert decisions == [("allow", harness.caller.wid)] * 3

    def test_granted_caller(self):
        policy = AllowListPolicy()
        harness = Harness(policy=policy)
        policy.grant(harness.caller.wid)
        assert harness.call("echo", 5) == (5,)

    def test_authorize_false_skips_policy(self):
        harness = Harness(policy=AllowListPolicy())
        assert harness.call("echo", 1, authorize=False) == (1,)

    def test_authorization_charged(self, harness):
        snap = harness.machine.cpu.perf.snapshot()
        harness.call("echo")
        delta = snap.delta(harness.machine.cpu.perf.snapshot())
        assert delta.count("world_authorize") == 1

    def test_minimal_mode_charges_no_authorization(self, harness):
        snap = harness.machine.cpu.perf.snapshot()
        harness.call("echo", authorize=False)
        delta = snap.delta(harness.machine.cpu.perf.snapshot())
        assert delta.count("world_authorize") == 0


class TestMissingCallee:
    @_TRACED
    @pytest.mark.parametrize("missing", ["handler", "software_world"])
    def test_caller_resumed(self, missing, traced):
        """A callee WID with no entry handler, or with no software world
        registered behind it, raises ``SimulationError`` only after the
        return transition has put the CPU back in the caller's world and
        popped the caller's frame; the next call works once the callee
        is whole again."""
        harness = Harness()
        cpu = harness.machine.cpu
        cpu.trace.enabled = traced
        callee = harness.callee
        handler = callee.handler
        if missing == "handler":
            callee.handler = None
        else:
            del harness.registry.worlds[callee.wid]
        with pytest.raises(SimulationError):
            harness.call("echo", 1)
        assert harness.caller.matches_cpu(cpu)
        assert harness.caller.call_stack == []
        assert not callee.busy
        callee.handler = handler
        harness.registry.worlds[callee.wid] = callee
        assert harness.call("echo", 2) == (2,)
        assert harness.caller.call_stack == []


class TestConcurrencyAndCFI:
    def test_reentrant_call_into_busy_world_rejected(self, harness):
        def reentrant(request):
            # The callee tries to call itself (handler -> same world).
            return harness.runtime.call(harness.callee, harness.callee.wid,
                                        ("echo",))

        harness.callee.handler = reentrant
        with pytest.raises(WorldCallError):
            harness.call("echo")
        # Flags are cleaned up for subsequent calls.
        assert not harness.callee.busy

    def test_malicious_early_return_detected(self, harness):
        """A callee that jumps back to the caller on its own violates
        call/return integrity: the caller's saved state detects it."""
        def early_return(request):
            harness.machine.hypervisor.worlds.world_call(
                harness.machine.cpu, request.caller_wid)
            return "smuggled"

        harness.callee.handler = early_return
        with pytest.raises(ControlFlowViolation):
            harness.call("echo")

    def test_nested_three_world_chain(self):
        harness = Harness()
        third_log = []

        def third_handler(request):
            third_log.append(request.payload)
            return "third-result"

        third = harness.registry.create_host_kernel_world(
            handler=third_handler)

        def chaining(request):
            # K(vm2) calls onwards into the host world.
            return harness.runtime.call(harness.callee, third.wid,
                                        ("probe",))

        harness.callee.handler = chaining
        assert harness.call("anything") == "third-result"
        assert third_log == [("probe",)]
        assert harness.caller.matches_cpu(harness.machine.cpu)


class TestWatchdog:
    def test_hang_without_watchdog_wedges(self, harness):
        with pytest.raises(WorldCallError):
            harness.call("hang")

    def test_hang_with_watchdog_cancelled(self, harness):
        harness.runtime.arm_watchdog(harness.caller)
        with pytest.raises(CallTimeout):
            harness.call("hang")
        # The hypervisor restored the caller's world.
        assert harness.caller.matches_cpu(harness.machine.cpu)
        assert harness.caller.call_stack == []

    def test_watchdog_arming_costs_a_hypercall(self, harness):
        snap = harness.machine.cpu.perf.snapshot()
        harness.runtime.arm_watchdog(harness.caller)
        delta = snap.delta(harness.machine.cpu.perf.snapshot())
        assert delta.count("vmexit") == 1
        assert delta.count("timer_program") == 1

    def test_watchdog_consumed_by_timeout(self, harness):
        harness.runtime.arm_watchdog(harness.caller)
        with pytest.raises(CallTimeout):
            harness.call("hang")
        with pytest.raises(WorldCallError):
            harness.call("hang")    # watchdog no longer armed


class TestChannels:
    def test_channel_between(self, harness):
        assert harness.runtime.channel_between(
            harness.caller, harness.callee) is not None

    def test_setup_channel_is_a_hypercall_from_guest(self, harness):
        snap = harness.machine.cpu.perf.snapshot()
        other = harness.registry.create_host_kernel_world(
            handler=lambda r: None)
        harness.to_caller_context()
        snap = harness.machine.cpu.perf.snapshot()
        harness.runtime.setup_channel(harness.caller, other)
        delta = snap.delta(harness.machine.cpu.perf.snapshot())
        assert delta.count("vmexit") == 1

    def test_watchdog_amortized_across_successful_calls(self, harness):
        """Section 3.4: one arming covers many calls — successful calls
        do not consume the watchdog."""
        harness.runtime.arm_watchdog(harness.caller)
        for _ in range(3):
            harness.call("echo", 1)
        # Still armed: a subsequent hang is recovered.
        import pytest as _pytest

        from repro.errors import CallTimeout

        with _pytest.raises(CallTimeout):
            harness.call("hang")


class TestArmedTimeoutBookkeeping:
    """Regression tests: ``hypervisor.armed_timeouts`` must be cleared
    on *every* exit from :meth:`WorldCallRuntime.call`, including the
    paths where a fault fires between arming and return."""

    def _armed(self, harness):
        return (harness.machine.cpu.cpu_id
                in harness.machine.hypervisor.armed_timeouts)

    def test_cleared_after_successful_call(self, harness):
        harness.runtime.arm_watchdog(harness.caller)
        harness.call("echo", 1)
        assert not self._armed(harness)

    def test_cleared_when_fault_fires_between_arm_and_return(self, harness):
        from repro import faults as _faults
        from repro.errors import CallTimeout
        from repro.faults import FaultEngine, FaultPlan

        harness.runtime.arm_watchdog(harness.caller)
        engine = FaultEngine([FaultPlan(site="core.callee_stall",
                                        schedule=(0,), budget=1)])
        with _faults.scoped(engine):
            engine.begin_operation(0)
            with pytest.raises(CallTimeout):
                harness.call("echo", 1)
            engine.end_operation()
        assert not self._armed(harness)
        # a later call still gets watchdog coverage without re-arming
        # bookkeeping leaks: arm again and verify normal operation
        harness.runtime.arm_watchdog(harness.caller)
        assert harness.call("echo", 2) == (2,)
        assert not self._armed(harness)

    def test_cleared_when_authorization_denies(self, harness):
        from repro import faults as _faults
        from repro.errors import AuthorizationDenied
        from repro.faults import FaultEngine, FaultPlan

        harness.runtime.arm_watchdog(harness.caller)
        engine = FaultEngine([FaultPlan(site="core.authorization_denial",
                                        schedule=(0,), budget=1)])
        with _faults.scoped(engine):
            engine.begin_operation(0)
            with pytest.raises(AuthorizationDenied):
                harness.call("echo", 1)
            engine.end_operation()
        assert not self._armed(harness)

    def test_amortized_watchdog_reinstalls_bookkeeping_per_call(self,
                                                               harness):
        """One arming covers many calls, but the hypervisor-side entry
        exists only while a call is in flight (no leak between calls)."""
        harness.runtime.arm_watchdog(harness.caller)
        for _ in range(3):
            harness.call("echo", 1)
            assert not self._armed(harness)
        assert harness.caller.watchdog_armed
