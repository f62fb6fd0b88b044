"""``crossover paper``: the paper's evaluation as one recorded campaign.

The run records the rows behind every section — Tables 1 and 3-7 and
Figures 1-5 — into one ``crossover-paper/v1`` artifact, and every
section renders from those rows alone, so a live run and an artifact
read back from disk print the same text::

    crossover paper                        # every section, plain text
    crossover paper --markdown paper.md    # + the same tables as markdown
    crossover paper --workers 1 --out PAPER.json
    crossover paper --check PAPER.json     # re-derive every claim

The Table 4-7 sweeps fan their cells over
:mod:`repro.analysis.parallel`; the artifact is byte-identical at any
worker count.

Each section prints measured values side-by-side with the paper's
published numbers.  Absolute fidelity is not the goal (see DESIGN.md),
but who wins, by roughly what factor, must match: ``summary`` records
those shape claims, and ``--check`` re-derives each one from the rows.
"""

from __future__ import annotations

import argparse
import json
from contextlib import closing
from typing import Any, Callable, Dict, List, Optional

from repro.analysis import experiments, parallel
from repro.analysis.calibration import (CROSSOVER_EXTRA_INSNS,
                                        FIGURE2_CROSSINGS, TABLE4_US,
                                        TABLE5_MS, TABLE6_MBS, TABLE7_INSNS)
from repro.analysis.hops import compute_table3
from repro.analysis.markdown import md_block, md_table
from repro.analysis.ringmap import count_direct, crossing_matrix
from repro.analysis.tables import format_table, improvement, reduction
from repro.campaign import Campaign, claim_failures
from repro.systems.pathmodels import TABLE1_SYSTEMS

SCHEMA = "crossover-paper/v1"

MARKDOWN_HEADER = ("# CrossOver reproduction — measured vs paper\n\n"
                   "Generated by `crossover paper --markdown`. Values are "
                   "measured/paper pairs; see EXPERIMENTS.md for "
                   "analysis.\n\n")


# ---------------------------------------------------------------------------
# rows: what the run records
# ---------------------------------------------------------------------------

def table1_rows() -> List[Dict[str, Any]]:
    """Table 1: the survey, each system's path cost measured."""
    from repro.machine import Machine
    from repro.systems.pathexec import measure_system

    rows = []
    with closing(Machine()) as machine:
        for s in TABLE1_SYSTEMS:
            measured = measure_system(machine.cpu, s)
            rows.append({"system": s.name, "category": s.category,
                         "semantic": s.semantic,
                         "minimal": s.minimal_crossings,
                         "actual": s.actual_crossings,
                         "times": s.times_label, "paper": s.paper_times,
                         "cycles": measured["actual_cycles"],
                         "speedup": measured["speedup"]})
    return rows


def figure1_rows() -> Dict[str, Any]:
    """Figure 1: direct vs indirect ring crossings."""
    direct, indirect = count_direct("sw")
    return {"direct": direct, "indirect": indirect,
            "indirect_pairs": [list(row) for row in crossing_matrix("sw")
                               if row[2] != "direct"]}


def _figure2_rows() -> Dict[str, Dict[str, Any]]:
    return {name: {key: d[key] for key in
                   ("crossings", "paper_crossings", "diagram")}
            for name, d in experiments.run_figure2().items()}


def record(workers: Optional[int] = None) -> Dict[str, Any]:
    """Run every section and build the ``crossover-paper/v1`` artifact
    (only the Table 4-7 sweeps use the pool's ``workers``)."""
    from repro.analysis.figure3 import run_figure3
    from repro.analysis.figure5 import run_figure5

    rows = {
        "table1": table1_rows(),
        "figure1": figure1_rows(),
        "table3": compute_table3(),
        "figure2": _figure2_rows(),
        "figure3": run_figure3(),
        "figure5": run_figure5(),
        "table4": parallel.run_table4(workers=workers),
        "table5": parallel.run_table5(workers=workers),
        "table6": parallel.run_table6(workers=workers),
        "table7": parallel.run_table7(workers=workers),
        "figure4": experiments.run_figure4(),
    }
    # The artifact's own JSON form (tuples become lists, Table 6's int
    # sizes string keys), so a live run renders what a reread one does.
    rows = json.loads(json.dumps(rows))
    return {"schema": SCHEMA, "rows": rows, "summary": claims(rows)}


# ---------------------------------------------------------------------------
# sections: each renders its rows through a table formatter
# (``format_table`` or ``md_table``) and a formatter for the figures'
# preformatted text (as is, or ``md_block``, so markdown does not
# reflow a sequence diagram)
# ---------------------------------------------------------------------------

def section_table1(rows, table=format_table, block=str) -> str:
    """Table 1: the cross-world call survey (+ measured path cost)."""
    return table(
        ["System", "Category", "Semantic", "Minimal", "Actual",
         "Times", "Paper", "Path cycles", "CrossOver speedup"],
        [[r["system"], r["category"], r["semantic"], r["minimal"],
          r["actual"], r["times"], r["paper"], r["cycles"],
          f"{r['speedup']:.1f}x"] for r in rows],
        "Table 1 — systems relying on cross-world calls")


def section_figure1(rows, table=format_table, block=str) -> str:
    """Figure 1: direct vs indirect ring crossings."""
    return (f"Figure 1 — ring crossings: {rows['direct']} direct, "
            f"{rows['indirect']} indirect (software-call graph)\n"
            + table(["From", "To", "Crossing"], rows["indirect_pairs"]))


def section_table3(rows, table=format_table, block=str) -> str:
    """Table 3: hop counts per world-call type."""
    out = []
    for row in rows:
        ref = row["paper"]
        out.append([
            row["pair"],
            "Y" if ref["hg"] else "", "Y" if ref["ring"] else "",
            "Y" if ref["space"] else "",
            row["hw"], row["sw"], row["vmfunc"], row["crossover"],
            "/".join("-" if ref[key] is None else str(ref[key])
                     for key in ("hw", "sw", "vmfunc", "crossover")),
        ])
    return table(
        ["World pair", "H/G", "Ring", "Space", "HW", "SW", "VMFUNC",
         "CrossOver", "Paper (HW/SW/VMFUNC/CO)"],
        out, "Table 3 — world-call hop counts (derived by shortest-path "
        "search over each mechanism's transition graph)")


def section_figure2(rows, table=format_table, block=str) -> str:
    """Figure 2: measured baseline call paths."""
    lines = ["Figure 2 — measured baseline redirection paths "
             "(the paper's figure counts coarser world-to-world hops; "
             "the simulator records every ring crossing)"]
    for name in FIGURE2_CROSSINGS:
        d = rows[name]
        lines.append(f"\n{name}: {d['crossings']} measured crossings "
                     f"(paper diagram: {d['paper_crossings']})")
        lines.append(block(d["diagram"]))
    return "\n".join(lines)


def section_figure3(rows, table=format_table, block=str) -> str:
    """Figure 3: the multi-CPU world-call scenario."""
    grid = ["         " + "".join(f"CPU-{i+1:<9}" for i in range(4))]
    for phase in ("before", "during", "after"):
        grid.append(f"{phase:>8} "
                    + "".join(f"{s:<13}" for s in rows[phase]))
    return (f"Figure 3 — world-call process on a 4-CPU machine "
            f"(CPU-{rows['calling_cpu'] + 1} calls WID "
            f"{rows['callee_wid']}):\n" + block("\n".join(grid)))


def section_figure5(rows, table=format_table, block=str) -> str:
    """Figure 5: the extended-VMFUNC datapath state."""
    entries = [["1" if e["present"] else "0", e["wid"],
                "H" if e["host_mode"] else "G", e["ring"],
                f"{e['eptp']:#x}", f"{e['ptp']:#x}", f"{e['pc']:#x}",
                e["world"]] for e in rows["entries"]]
    return (table(["P", "WID", "H/G", "Ring", "EPTP", "PTP", "PC", "world"],
                  entries,
                  "Figure 5 — world-table entries (the figure's format)")
            + f"\nper-core caches ({rows['cache_capacity']} entries): "
            f"WT {rows['wt_hits']} hits / {rows['wt_misses']} misses; "
            f"IWT {rows['iwt_hits']} hits / {rows['iwt_misses']} misses; "
            f"{rows['misses_serviced']} misses serviced by the "
            "hypervisor (manage_wtc refills)")


def section_table4(rows, table=format_table, block=str) -> str:
    """Table 4: microbenchmark latencies."""
    out = []
    for op in TABLE4_US:
        d = rows[op]
        paper_native, paper_systems = d["paper"]
        row: List[object] = [op, d["native"], paper_native]
        for system in experiments.SYSTEMS:
            orig, opt = d["systems"][system]
            p_orig, p_opt = paper_systems[system]
            row.append(f"{orig:.2f}/{p_orig:g}")
            row.append(f"{opt:.2f}/{p_opt:g}")
            row.append(f"{reduction(orig, opt):.0f}%"
                       f"/{reduction(p_orig, p_opt):.0f}%")
        out.append(row)
    headers = ["Benchmark", "Native us", "(paper)"]
    for system in experiments.SYSTEMS:
        headers += [f"{system} orig", f"{system} opt", "reduction"]
    return table(headers, out, "Table 4 — microbenchmarks (measured/paper)")


def section_table5(rows, table=format_table, block=str) -> str:
    """Table 5: utility tools."""
    out = []
    for tool in TABLE5_MS:
        d = rows[tool]
        pn, po, pc = d["paper"]
        out.append([
            tool, d["native"], pn, d["original"], po, d["crossover"], pc,
            f"{reduction(d['original'], d['crossover']):.1f}%",
            f"{reduction(po, pc):.1f}%",
            "yes" if d["outputs_consistent"] else "NO",
        ])
    return table(
        ["Utility", "Native ms", "(paper)", "w/o CrossOver", "(paper)",
         "w/ CrossOver", "(paper)", "Reduction", "(paper)",
         "Outputs match"],
        out, "Table 5 — utility tools inspecting another VM")


def section_table6(rows, table=format_table, block=str) -> str:
    """Table 6: OpenSSH throughput."""
    out = []
    for size in sorted(rows, key=int):
        d = rows[size]
        pn, pc, pb = d["paper"]
        out.append([
            int(size), d["native"], pn, d["crossover"], pc, d["baseline"],
            pb, f"{improvement(d['crossover'], d['baseline']):.0f}%",
            f"{improvement(pc, pb):.0f}%",
        ])
    return table(
        ["Size MB", "Native MB/s", "(paper)", "w/ CrossOver", "(paper)",
         "w/o CrossOver", "(paper)", "Improvement", "(paper)"],
        out, "Table 6 — partitioned OpenSSH scp throughput")


def section_table7(rows, table=format_table, block=str) -> str:
    """Table 7: instruction counts."""
    out = []
    for op in TABLE7_INSNS:
        d = rows[op]
        pn, pc, pb = d["paper"]
        out.append([
            op, int(d["native"]), pn, int(d["crossover"]), pc,
            int(d["baseline"]), pb,
            f"+{int(d['crossover'] - d['native'])}",
        ])
    return table(
        ["Benchmark", "Native", "(paper)", "w/ CrossOver", "(paper)",
         "w/o CrossOver", "(paper)", "CrossOver delta"],
        out, "Table 7 — instruction counts per redirected call")


def section_figure4(rows, table=format_table, block=str) -> str:
    """Figure 4: the cross-VM syscall step trace."""
    return (f"Figure 4 — cross-VM syscall over VMFUNC "
            f"({rows['vmfunc_switches']} exit-free EPT switches):\n"
            + block("\n".join(f"  {e}" for e in rows["events"])))


#: Section name -> renderer, in report order.
SECTIONS: Dict[str, Callable[..., str]] = {
    "table1": section_table1,
    "figure1": section_figure1,
    "table3": section_table3,
    "figure2": section_figure2,
    "figure3": section_figure3,
    "figure5": section_figure5,
    "table4": section_table4,
    "table5": section_table5,
    "table6": section_table6,
    "table7": section_table7,
    "figure4": section_figure4,
}


def render(artifact: Dict[str, Any], table=format_table,
           block=str) -> str:
    """Every section, from the recorded rows alone."""
    rows = artifact["rows"]
    return "\n\n".join(section(rows[name], table, block)
                       for name, section in SECTIONS.items())


def render_markdown(artifact: Dict[str, Any]) -> str:
    """The markdown report: the same tables, as GitHub markdown."""
    return MARKDOWN_HEADER + render(artifact, md_table, md_block) + "\n"


# ---------------------------------------------------------------------------
# claims: the paper's shapes, re-derivable from the rows
# ---------------------------------------------------------------------------

def _near(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def _table4_claims(rows: Dict[str, Any]) -> Dict[str, bool]:
    cells = [(op, d["native"], system, orig, opt)
             for op, d in rows.items()
             for system, (orig, opt) in d["systems"].items()]
    return {
        "table4_native_near_paper": all(
            _near(d["native"], TABLE4_US[op][0], 0.12)
            for op, d in rows.items()),
        "table4_ordering": all(native < opt < orig
                               for _, native, _, orig, opt in cells),
        "table4_reductions_near_paper": all(
            abs(reduction(orig, opt)
                - reduction(*TABLE4_US[op][1][system])) <= 12
            for op, _, system, orig, opt in cells),
        "table4_tahoma_baseline_dominates": all(
            rows[op]["systems"]["Tahoma"][0] > 4 * orig
            for op, _, system, orig, _ in cells if system != "Tahoma"),
        "table4_optimized_within_3x_native": all(
            opt < 3.0 * max(native, 0.3) for _, native, _, _, opt in cells),
    }


def _table5_claims(rows: Dict[str, Any]) -> Dict[str, bool]:
    measured = {tool: reduction(d["original"], d["crossover"])
                for tool, d in rows.items()}
    return {
        "table5_native_near_paper": all(
            _near(d["native"], TABLE5_MS[tool][0], 0.15)
            for tool, d in rows.items()),
        "table5_ordering": all(d["native"] < d["crossover"] < d["original"]
                               for d in rows.values()),
        "table5_reductions_in_band": all(
            abs(value - reduction(*TABLE5_MS[tool][1:])) <= 12
            and 50 <= value <= 85 for tool, value in measured.items()),
        "table5_outputs_consistent": all(d["outputs_consistent"]
                                         for d in rows.values()),
    }


def _table6_claims(rows: Dict[str, Any]) -> Dict[str, bool]:
    modes = ("native", "crossover", "baseline")
    return {
        "table6_ordering": all(d["native"] > d["crossover"] > d["baseline"]
                               for d in rows.values()),
        "table6_throughputs_near_paper": all(
            _near(d[mode], paper, 0.25) for size, d in rows.items()
            for mode, paper in zip(modes, TABLE6_MBS[int(size)])),
        "table6_improvement_in_band": all(
            40 <= improvement(d["crossover"], d["baseline"]) <= 130
            for d in rows.values()),
    }


def _table7_claims(rows: Dict[str, Any]) -> Dict[str, bool]:
    extra = {op: d["crossover"] - d["native"] for op, d in rows.items()}
    baseline = {op: d["baseline"] - d["native"] for op, d in rows.items()}
    return {
        "table7_native_exact": all(int(d["native"]) == TABLE7_INSNS[op][0]
                                   for op, d in rows.items()),
        "table7_register_ops_exact": all(
            extra[op] == CROSSOVER_EXTRA_INSNS
            for op in ("getppid", "read", "write")),
        "table7_deltas_in_band": all(
            CROSSOVER_EXTRA_INSNS <= delta <= 70 for delta in extra.values()),
        "table7_baseline_delta_near_paper": all(
            0.7 * (TABLE7_INSNS[op][2] - TABLE7_INSNS[op][0]) <= delta
            <= 2.6 * (TABLE7_INSNS[op][2] - TABLE7_INSNS[op][0])
            for op, delta in baseline.items()),
        "table7_baseline_dwarfs_crossover": all(
            baseline[op] > 15 * extra[op] for op in rows),
    }


def claims(rows: Dict[str, Any]) -> Dict[str, bool]:
    """Who wins, and by roughly what factor, per table and figure (the
    thresholds of ``tests/analysis/test_paper_shapes.py``)."""
    return {
        **_table4_claims(rows["table4"]),
        **_table5_claims(rows["table5"]),
        **_table6_claims(rows["table6"]),
        **_table7_claims(rows["table7"]),
        "figure2_crossings_at_least_paper": all(
            d["crossings"] >= FIGURE2_CROSSINGS[name]
            for name, d in rows["figure2"].items()),
        "figure4_two_exit_free_switches":
            rows["figure4"]["vmfunc_switches"] == 2,
    }


#: The rows every claimed table must cover.
_COVERAGE = {"table4": TABLE4_US, "table5": TABLE5_MS,
             "table6": {str(size) for size in TABLE6_MBS},
             "table7": TABLE7_INSNS, "figure2": FIGURE2_CROSSINGS}


def _failures(artifact: Dict[str, Any]) -> List[str]:
    """Re-derive every claim from the rows, then gate on the recorded
    claims."""
    rows = artifact["rows"]
    if any(set(rows[name]) != set(keys) for name, keys in _COVERAGE.items()):
        return ["rows do not cover every table row of the paper"]
    errors = []
    recorded = artifact["summary"]
    for name, value in claims(rows).items():
        if recorded.get(name) != value:
            errors.append(f"claim {name} recorded as "
                          f"{recorded.get(name)}, but the rows say {value}")
    return errors + claim_failures(artifact)


def _add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--markdown", default=None, metavar="FILE",
                        help="write the markdown report here")


def _run(args: argparse.Namespace) -> Dict[str, Any]:
    artifact = record(workers=args.workers)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as stream:
            stream.write(render_markdown(artifact))
        if not args.quiet:
            print(f"wrote {args.markdown}")
    return artifact


CAMPAIGN = Campaign(
    name="paper", section="paper",
    help="The paper's Tables 1 and 3-7 and Figures 1-5, measured next "
         "to the published numbers, with the shape claims checked.",
    add_arguments=_add_arguments, run=_run, render=render,
    failures=_failures, seeded=False)
