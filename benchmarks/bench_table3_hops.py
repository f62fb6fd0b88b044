"""Table 3 — hop counts for the ten world-call types under each
hardware generation, derived by shortest-path search."""

from benchmarks.conftest import emit
from repro.analysis.calibration import TABLE3_HOPS
from repro.analysis.hops import compute_table3
from repro.analysis.report import section_table3


def test_table3_hop_counts(run_once):
    rows = run_once(compute_table3)
    emit("Table 3 — world-call hop classification", section_table3(rows))
    assert len(rows) == 10
    for row in rows:
        ref = row["paper"]
        assert row["crossover"] == 1
        if ref["hw"] is not None:
            assert row["hw"] == ref["hw"]
        if ref["vmfunc"] is not None:
            assert row["vmfunc"] == ref["vmfunc"]


def test_table3_sw_paths_match_paper_except_documented_case(run_once):
    rows = run_once(compute_table3)
    for row in rows:
        ref = row["paper"]
        if ref["sw"] is None:
            continue
        if row["pair"].startswith("U(vm1) <-> K(vm2)"):
            # Published systems bounce via a user-level dummy process: 4
            # hops; the graph-theoretic optimum is 3.
            assert row["sw"] == 3 and ref["sw"] == 4
        else:
            assert row["sw"] == ref["sw"], row["pair"]
