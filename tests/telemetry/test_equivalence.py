"""Golden invariant: telemetry must change wall-clock only.

With a session installed, every modeled quantity — instructions,
cycles, per-event counts — must be bit-identical to a telemetry-off
run, on traced machines (``slowpath``) and on untraced ones
(``fastpath``): telemetry hooks observe; they never charge."""

import contextlib

import pytest

from repro import telemetry
from repro.analysis import experiments
from repro.core import convention

from tests.analysis.test_fastpath_equivalence import traced

#: A cross-section of Table-4 columns: the native surface, two
#: trap-based baselines, and an optimized path.
COLUMNS = [(None, False), ("Proxos", False), ("ShadowContext", False),
           ("HyperShell", True)]


def _column_deltas(system_name, optimized, iterations=2):
    if system_name is None:
        surface = experiments._native_surface()
    else:
        surface = experiments._surface_for(system_name, optimized)
    out = {}
    for op, (method, divisor) in experiments.TABLE4_OPS.items():
        m = experiments._measure_op(surface, method, divisor, iterations)
        out[op] = (m.delta.instructions, m.delta.cycles,
                   dict(m.delta.events))
    return out


@pytest.mark.parametrize("fast", [False, True], ids=["slowpath", "fastpath"])
@pytest.mark.parametrize("system_name,optimized", COLUMNS,
                         ids=[f"{n or 'native'}-{'opt' if o else 'orig'}"
                              for n, o in COLUMNS])
def test_counters_identical_with_telemetry(system_name, optimized, fast):
    convention.clear_caches()
    with contextlib.nullcontext() if fast else traced():
        plain = _column_deltas(system_name, optimized)
        with telemetry.scoped("equivalence"):
            observed = _column_deltas(system_name, optimized)
    assert observed == plain


@pytest.mark.parametrize("fast", [False, True], ids=["slowpath", "fastpath"])
@pytest.mark.parametrize("system_name,optimized", COLUMNS,
                         ids=[f"{n or 'native'}-{'opt' if o else 'orig'}"
                              for n, o in COLUMNS])
def test_counters_identical_with_counters_only_session(system_name,
                                                       optimized, fast):
    """The same invariant under :meth:`TelemetrySession.lightweight`,
    traced and untraced."""
    convention.clear_caches()
    with contextlib.nullcontext() if fast else traced():
        plain = _column_deltas(system_name, optimized)
        session = telemetry.install(
            telemetry.TelemetrySession.lightweight("equivalence"))
        try:
            observed = _column_deltas(system_name, optimized)
        finally:
            telemetry.uninstall()
    assert observed == plain
    assert session.tracer.roots == []


def test_fastpath_equivalence_holds_under_telemetry():
    """The golden invariant (traced == untraced counters) still holds
    while a telemetry session is collecting."""
    convention.clear_caches()
    with telemetry.scoped("equivalence"):
        for optimized in (False, True):
            with traced():
                slow = _column_deltas("ShadowContext", optimized)
            fast = _column_deltas("ShadowContext", optimized)
            assert fast == slow, optimized


def test_figure4_identical_with_telemetry():
    plain = experiments.run_figure4()
    with telemetry.scoped("fig4") as session:
        observed = experiments.run_figure4()
    assert observed == plain
    assert session.metrics.family("core.crossvm_roundtrips")
