"""Regression: one marshaling walk per payload on the hot path.

``WorldCallRuntime._call`` once marshaled each direction twice —
``encode`` walked the payload to derive the cache key and produce the
wire, then ``decode`` parsed the wire right back — and took that path
whenever a fault engine was installed.  The hoisted
:func:`repro.core.convention.roundtrip` keys both halves off a single
walk and hits its own cache in steady state, faults armed or not; on a
miss it encodes once and copies the payload, never parsing the wire it
has just written.  This pins the counts with counting stubs so the
re-derivation cannot creep back in.
"""

from repro import faults
from repro.core import convention
from repro.core.crossvm import CrossVMSyscallMechanism
from repro.faults import FaultEngine
from repro.testbed import build_two_vm_machine, enter_vm_kernel


def _build_worldcall_harness(handler):
    """A two-VM CrossOver machine with a kernel world in each VM; the
    CPU is left in the caller's context, ready to ``runtime.call``."""
    from repro.core.call import WorldCallRuntime
    from repro.core.world import WorldRegistry
    from repro.hw.costs import FEATURES_CROSSOVER
    from repro.testbed import build_two_vm_machine, enter_vm_kernel

    machine, vm1, k1, vm2, k2 = build_two_vm_machine(
        features=FEATURES_CROSSOVER)
    registry = WorldRegistry(machine)
    runtime = WorldCallRuntime(machine, registry)
    enter_vm_kernel(machine, vm1)
    caller = registry.create_kernel_world(k1)
    enter_vm_kernel(machine, vm2)
    callee = registry.create_kernel_world(k2, handler=handler)
    enter_vm_kernel(machine, vm1)
    machine.cpu.write_cr3(k1.master_page_table)
    return machine, runtime, caller, callee


def _counting(monkeypatch, counts):
    for name in counts:
        _count(monkeypatch, name, counts)


def _count(monkeypatch, name, counts):
    real = getattr(convention, name)

    def wrapper(arg):
        counts[name] += 1
        return real(arg)

    monkeypatch.setattr(convention, name, wrapper)


def _steady_state_counts(monkeypatch):
    """Marshaling calls made by ten warm world calls."""
    machine, runtime, caller, callee = _build_worldcall_harness(
        lambda request: ("pong", request.payload))
    payload = ("ping", 7)
    with machine.cpu.trace.scoped(False):
        # Warm the round-trip cache outside the counted window.
        for _ in range(4):
            runtime.call(caller, callee.wid, payload)
        counts = {"encode": 0, "decode": 0, "roundtrip": 0}
        _counting(monkeypatch, counts)
        for _ in range(10):
            result = runtime.call(caller, callee.wid, payload)
            assert result == ("pong", payload)
    return counts


class TestMarshalHoist:
    def test_steady_state_is_roundtrip_only(self, monkeypatch):
        # One roundtrip for the request, one for the result; a
        # regression to separate encode+decode per direction shows up
        # as nonzero encode/decode counts.
        counts = _steady_state_counts(monkeypatch)
        assert counts == {"encode": 0, "decode": 0, "roundtrip": 20}, counts

    def test_steady_state_under_inert_fault_engine(self, monkeypatch):
        """An installed engine that injects nothing must not divert the
        call onto a second marshaling path."""
        with faults.scoped(FaultEngine([])):
            counts = _steady_state_counts(monkeypatch)
        assert counts == {"encode": 0, "decode": 0, "roundtrip": 20}, counts


def _cold_crossvm_counts(monkeypatch, traced):
    """Marshaling calls made by one Figure-4 round trip on a cold memo:
    a ``readdir``, whose request and reply are both non-scalar."""
    machine, vm1, _, vm2, _ = build_two_vm_machine()
    mech = CrossVMSyscallMechanism(machine)
    enter_vm_kernel(machine, vm1)
    mech.setup_pair(vm1, vm2)
    enter_vm_kernel(machine, vm1)
    convention.clear_caches()
    counts = {"encode": 0, "decode": 0, "roundtrip": 0}
    _counting(monkeypatch, counts)
    with machine.cpu.trace.scoped(traced):
        names = mech.call(vm1, vm2, "readdir", "/")
    assert "etc" in names
    assert convention.cache_stats["roundtrip_hits"] == 0
    return counts


class TestColdRoundTripNeverParses:
    """A memo miss encodes once per non-scalar direction and copies the
    payload; only the step-by-step cross-VM half, which reads its bytes
    back through the shared page, decodes."""

    def test_cold_world_call(self, monkeypatch):
        machine, runtime, caller, callee = _build_worldcall_harness(
            lambda request: ("pong", request.payload))
        convention.clear_caches()
        counts = {"encode": 0, "decode": 0, "roundtrip": 0}
        _counting(monkeypatch, counts)
        with machine.cpu.trace.scoped(False):
            assert runtime.call(caller, callee.wid, ("ping", [7])) == \
                ("pong", ("ping", [7]))
        assert convention.cache_stats["roundtrip_hits"] == 0
        assert counts == {"encode": 2, "decode": 0, "roundtrip": 2}, counts

    def test_cold_crossvm_straight_half(self, monkeypatch):
        counts = _cold_crossvm_counts(monkeypatch, traced=False)
        assert counts == {"encode": 2, "decode": 0, "roundtrip": 2}, counts

    def test_cold_crossvm_step_by_step_half_decodes_the_page(
            self, monkeypatch):
        # The request is marshaled once up front; the callee decodes it
        # from the shared page, and the caller decodes the reply.
        counts = _cold_crossvm_counts(monkeypatch, traced=True)
        assert counts == {"encode": 2, "decode": 2, "roundtrip": 1}, counts
