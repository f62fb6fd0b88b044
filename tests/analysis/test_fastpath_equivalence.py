"""Golden equivalence: the transition trace must change wall-clock only.

For every Table-4 measurement (every system x variant x op, plus
native), machines that keep their transition trace on (every transition
charged step by step, the "slow" side) and the trace-off machines the
experiments build (where the Figure-4 round trip runs as two
straight-line halves) must produce *identical* instructions, cycles and
per-event counts.
"""

import contextlib

import pytest

from repro.analysis import experiments, parallel
from repro.core import convention


@contextlib.contextmanager
def traced():
    """Experiment machines built inside keep their transition trace on
    (``_tune`` is what switches it off)."""
    tune = experiments._tune
    experiments._tune = lambda machine: None
    try:
        yield
    finally:
        experiments._tune = tune


#: Every Table-4 column: native plus each system x variant.
COLUMNS = [(None, False)] + [(name, optimized)
                             for name in experiments.SYSTEMS
                             for optimized in (False, True)]


def _column_deltas(system_name, optimized, iterations=3):
    """Raw per-op counter deltas for one Table-4 column, and whether its
    machine recorded its transition trace."""
    if system_name is None:
        surface = experiments._native_surface()
    else:
        surface = experiments._surface_for(system_name, optimized)
    out = {"traced": experiments._machine_of(surface).cpu.trace.enabled}
    for op, (method, divisor) in experiments.TABLE4_OPS.items():
        m = experiments._measure_op(surface, method, divisor, iterations)
        out[op] = (m.delta.instructions, m.delta.cycles,
                   dict(m.delta.events))
    return out


class TestTable4Golden:
    @pytest.mark.parametrize("system_name,optimized", COLUMNS,
                             ids=[f"{n or 'native'}-{'opt' if o else 'orig'}"
                                  for n, o in COLUMNS])
    def test_counters_identical(self, system_name, optimized):
        convention.clear_caches()
        with traced():
            slow = _column_deltas(system_name, optimized)
        fast = _column_deltas(system_name, optimized)
        assert slow.pop("traced") and not fast.pop("traced")
        for op in slow:
            s_insns, s_cycles, s_events = slow[op]
            f_insns, f_cycles, f_events = fast[op]
            assert f_insns == s_insns, (op, "instructions")
            assert f_cycles == s_cycles, (op, "cycles")
            assert f_events == s_events, (op, "events")


class TestMergedResults:
    def test_run_table4_identical(self):
        with traced():
            slow = experiments.run_table4(iterations=2)
        fast = experiments.run_table4(iterations=2)
        assert slow == fast

    def test_table5_cell_identical(self):
        with traced():
            slow = experiments.table5_cell("uptime")
        fast = experiments.table5_cell("uptime")
        assert slow == fast


class TestParallelRunner:
    def test_serial_fallback_matches_serial_runner(self):
        assert (parallel.run_table4(iterations=2, workers=1)
                == experiments.run_table4(iterations=2))

    def test_pool_matches_serial_runner(self):
        assert (parallel.run_table4(iterations=2, workers=2)
                == experiments.run_table4(iterations=2))

    def test_run_cells_preserves_spec_order(self):
        specs = experiments.table4_specs(iterations=1)
        cells = parallel.run_cells(specs, workers=2)
        assert [(c.runner, c.args) for c in cells] == specs
        assert all(c.wall_seconds >= 0 for c in cells)
