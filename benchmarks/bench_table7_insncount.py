"""Table 7 — instruction counts per redirected syscall (the QEMU
full-system-emulation experiment of Section 7.2)."""

import pytest

from benchmarks.conftest import emit
from repro.analysis import experiments, parallel
from repro.analysis.calibration import CROSSOVER_EXTRA_INSNS, TABLE7_INSNS
from repro.analysis.report import section_table7


@pytest.fixture(scope="module")
def table7():
    return experiments.run_table7(iterations=5)


def test_table7_instruction_counts(run_once, table7):
    emit("Table 7 — instruction counts",
         section_table7(run_once(parallel.run_table7, workers=1)))


@pytest.mark.parametrize("op", list(TABLE7_INSNS))
def test_table7_native_exact(table7, op):
    assert int(table7[op]["native"]) == TABLE7_INSNS[op][0]


@pytest.mark.parametrize("op", ["getppid", "read", "write"])
def test_table7_register_passed_exactly_33_extra(table7, op):
    delta = table7[op]["crossover"] - table7[op]["native"]
    assert delta == CROSSOVER_EXTRA_INSNS


@pytest.mark.parametrize("op", list(TABLE7_INSNS))
def test_table7_baseline_dwarfs_crossover(table7, op):
    extra_crossover = table7[op]["crossover"] - table7[op]["native"]
    extra_baseline = table7[op]["baseline"] - table7[op]["native"]
    assert extra_baseline > 15 * extra_crossover
