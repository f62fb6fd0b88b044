"""Stepwise oracle vs fused fast path on a raw world-call sequence.

``tests/analysis/test_fastpath_equivalence.py`` holds the two tiers
bit-identical on the paper's tables.  These cases drive
``WorldCallRuntime.call`` directly and mutate the world table between
two hot bursts — an evict/restore of the callee's entry, and a
revocation of the callee — so the fast path's caches must notice the
change exactly where the step-by-step path does.
"""

from repro.core import convention, fastpath

from tests.core.test_marshal_hoist import _build_worldcall_harness


def _run_sequence(fast, mutate=None):
    """12 calls, an optional mid-workload mutation, 12 more calls;
    returns (results, (instructions, cycles, events))."""
    convention.clear_caches()
    machine, runtime, caller, callee = _build_worldcall_harness(
        lambda request: ("pong", request.payload))
    results = []
    with fastpath.scoped(fast), machine.cpu.trace.scoped(False):
        def record(payload):
            try:
                results.append(runtime.call(caller, callee.wid, payload))
            except Exception as exc:  # noqa: BLE001 - compared
                results.append(("raised", type(exc).__name__))

        for i in range(12):
            record(("ping", i))
        if mutate is not None:
            mutate(machine, runtime, callee)
        for i in range(12):
            record(("ping", 100 + i))
    perf = machine.cpu.perf
    return results, (perf.instructions, perf.cycles, dict(perf.events))


def _evict_and_restore(machine, runtime, callee):
    entry = machine.world_table.evict(callee.wid)
    assert entry is not None
    machine.world_table.restore_entry(entry)


def _revoke(machine, runtime, callee):
    runtime.registry.destroy(callee)


class TestWorldCallTiers:
    def test_roundtrip_identical(self):
        assert _run_sequence(True) == _run_sequence(False)

    def test_table_mutation_mid_workload(self):
        assert (_run_sequence(True, _evict_and_restore)
                == _run_sequence(False, _evict_and_restore))

    def test_revocation_between_hot_calls(self):
        fast = _run_sequence(True, _revoke)
        assert fast == _run_sequence(False, _revoke)
        assert fast[0][-1] == ("raised", "NoSuchWorld"), fast[0][-1]
