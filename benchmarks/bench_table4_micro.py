"""Table 4 — microbenchmark latencies of the four systems,
original vs VMFUNC-optimized, against guest-native Linux."""

import pytest

from benchmarks.conftest import emit
from repro.analysis import experiments, parallel
from repro.analysis.calibration import TABLE4_US
from repro.analysis.report import section_table4
from repro.analysis.tables import reduction


@pytest.fixture(scope="module")
def table4():
    return experiments.run_table4(iterations=5)


def test_table4_microbenchmarks(run_once, table4):
    emit("Table 4 — microbenchmark latencies",
         section_table4(run_once(parallel.run_table4, workers=1)))


@pytest.mark.parametrize("op", list(TABLE4_US))
def test_table4_row_shape(table4, op):
    d = table4[op]
    paper_native, paper_systems = d["paper"]
    assert d["native"] == pytest.approx(paper_native, rel=0.12)
    for system, (orig, opt) in d["systems"].items():
        p_orig, p_opt = paper_systems[system]
        assert d["native"] < opt < orig
        assert reduction(orig, opt) == pytest.approx(
            reduction(p_orig, p_opt), abs=12), system


def test_table4_proxos_reduction_band(table4):
    """Paper: Proxos sees ~70-87.5% latency reduction."""
    for op, d in table4.items():
        orig, opt = d["systems"]["Proxos"]
        assert 60 <= reduction(orig, opt) <= 95, op


def test_table4_tahoma_reduction_over_97_percent(table4):
    for op, d in table4.items():
        orig, opt = d["systems"]["Tahoma"]
        assert reduction(orig, opt) > 93, op
