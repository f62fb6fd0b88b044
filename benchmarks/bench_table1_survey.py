"""Table 1 — the cross-world call survey.

Recomputes every system's actual/minimal crossing ratio from its
published-design path model and checks each against the paper's
"Times" column.
"""

from benchmarks.conftest import emit
from repro.analysis.report import section_table1, table1_rows
from repro.systems.pathmodels import TABLE1_SYSTEMS, verify_against_paper


def test_table1_survey(run_once):
    rows = run_once(verify_against_paper)
    emit("Table 1 — survey of cross-world call systems",
         section_table1(table1_rows()))
    for name, computed, paper in rows:
        assert computed == paper, f"{name}: {computed} != paper {paper}"


def test_table1_crossover_reduces_every_system_to_minimal(run_once):
    """With CrossOver every surveyed call is two world calls (call +
    return): the theoretically minimal path."""
    def factors():
        return [(s.name, s.actual_crossings, s.minimal_crossings)
                for s in TABLE1_SYSTEMS]

    for name, actual, minimal in run_once(factors):
        assert minimal == 2
        assert actual > minimal
