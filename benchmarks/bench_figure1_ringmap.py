"""Figure 1 — direct vs indirect ring crossings in the virtualized
stack, and how each mechanism level shrinks the indirect set."""

from benchmarks.conftest import emit
from repro.analysis.report import figure1_rows, section_figure1
from repro.analysis.ringmap import count_direct, crossing_matrix


def test_figure1_ring_crossings(run_once):
    direct, indirect = run_once(count_direct, "sw")
    emit("Figure 1 — ring-crossing reachability",
         section_figure1(figure1_rows()))
    assert direct == 16
    assert indirect == 26


def test_figure1_crossover_eliminates_indirection(run_once):
    rows = run_once(crossing_matrix, "crossover")
    worst = max(int(kind.strip("indirect()"))
                for _, _, kind in rows if kind.startswith("indirect"))
    assert worst == 1


def test_figure1_vmfunc_helps_cross_vm_only(run_once):
    sw = dict(((s, d), k) for s, d, k in run_once(crossing_matrix, "sw"))
    vmfunc = dict(((s, d), k) for s, d, k in crossing_matrix("vmfunc"))
    assert sw[("U(vm1)", "U(vm2)")] == "indirect(4)"
    assert vmfunc[("U(vm1)", "U(vm2)")] == "indirect(1)"
    # Host-guest pairs are unchanged by VMFUNC.
    assert sw[("U(vm1)", "U(host)")] == vmfunc[("U(vm1)", "U(host)")]
