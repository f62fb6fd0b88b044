"""``crossover-report``: regenerate every table/figure of the paper.

Usage::

    crossover-report                 # all tables, plain text
    crossover-report --quick        # skip the slow Table 5/6 runs
    crossover-report --workers 1    # sweep cells in-process
    python -m repro.analysis.report

The Table 4-7 sweeps fan their cells over
:mod:`repro.analysis.parallel` (``--workers N``, default one per CPU);
the printed numbers are the same at any worker count.

Each section prints measured values side-by-side with the paper's
published numbers (absolute fidelity is not the goal — see DESIGN.md —
but who wins, by roughly what factor, must match).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import experiments, parallel
from repro.analysis.hops import compute_table3
from repro.analysis.ringmap import count_direct, crossing_matrix
from repro.analysis.tables import format_table, improvement, reduction
from repro.campaign import worker_count
from repro.systems.pathmodels import TABLE1_SYSTEMS


def section_table1(workers: Optional[int] = None) -> str:
    """Table 1: the cross-world call survey (+ measured path cost)."""
    from repro.machine import Machine
    from repro.systems.pathexec import measure_system

    machine = Machine()
    rows = []
    for s in TABLE1_SYSTEMS:
        measured = measure_system(machine.cpu, s)
        rows.append([s.name, s.category, s.semantic,
                     s.minimal_crossings, s.actual_crossings,
                     s.times_label, s.paper_times,
                     measured["actual_cycles"],
                     f"{measured['speedup']:.1f}x"])
    return format_table(
        ["System", "Category", "Semantic", "Minimal", "Actual",
         "Times", "Paper", "Path cycles", "CrossOver speedup"],
        rows, "Table 1 — systems relying on cross-world calls")


def section_figure1(workers: Optional[int] = None) -> str:
    """Figure 1: direct vs indirect ring crossings."""
    direct, indirect = count_direct("sw")
    lines = [f"Figure 1 — ring crossings: {direct} direct, "
             f"{indirect} indirect (software-call graph)"]
    rows = [(src, dst, kind) for src, dst, kind in crossing_matrix("sw")
            if kind != "direct"]
    lines.append(format_table(["From", "To", "Crossing"], rows))
    return "\n".join(lines)


def section_table3(workers: Optional[int] = None) -> str:
    """Table 3: hop counts per world-call type."""
    rows = []
    for row in compute_table3():
        ref = row["paper"]
        rows.append([
            row["pair"],
            "Y" if ref["hg"] else "", "Y" if ref["ring"] else "",
            "Y" if ref["space"] else "",
            row["hw"], row["sw"], row["vmfunc"], row["crossover"],
            _paper_hops(ref),
        ])
    return format_table(
        ["World pair", "H/G", "Ring", "Space", "HW", "SW", "VMFUNC",
         "CrossOver", "Paper (HW/SW/VMFUNC/CO)"],
        rows, "Table 3 — world-call hop counts (derived by shortest-path "
        "search over each mechanism's transition graph)")


def _paper_hops(ref: dict) -> str:
    cells = [ref["hw"], ref["sw"], ref["vmfunc"], ref["crossover"]]
    return "/".join("-" if c is None else str(c) for c in cells)


def section_figure2(workers: Optional[int] = None) -> str:
    """Figure 2: measured baseline call paths."""
    data = experiments.run_figure2()
    lines = ["Figure 2 — measured baseline redirection paths "
             "(the paper's figure counts coarser world-to-world hops; "
             "the simulator records every ring crossing)"]
    for name, d in data.items():
        lines.append(f"\n{name}: {d['crossings']} measured crossings "
                     f"(paper diagram: {d['paper_crossings']})")
        lines.append(d["diagram"])
    return "\n".join(lines)


def section_table4(workers: Optional[int] = None) -> str:
    """Table 4: microbenchmark latencies."""
    data = parallel.run_table4(workers=workers)
    rows = []
    for op, d in data.items():
        paper_native, paper_systems = d["paper"]
        row: List[object] = [op, d["native"], paper_native]
        for system in ("Proxos", "HyperShell", "Tahoma", "ShadowContext"):
            orig, opt = d["systems"][system]
            p_orig, p_opt = paper_systems[system]
            row.append(f"{orig:.2f}/{p_orig:g}")
            row.append(f"{opt:.2f}/{p_opt:g}")
            row.append(f"{reduction(orig, opt):.0f}%"
                       f"/{reduction(p_orig, p_opt):.0f}%")
        rows.append(row)
    headers = ["Benchmark", "Native us", "(paper)"]
    for system in ("Proxos", "HyperShell", "Tahoma", "ShadowContext"):
        headers += [f"{system} orig", f"{system} opt", "reduction"]
    return format_table(headers, rows,
                        "Table 4 — microbenchmarks (measured/paper)")


def section_table5(workers: Optional[int] = None) -> str:
    """Table 5: utility tools."""
    data = parallel.run_table5(workers=workers)
    rows = []
    for tool, d in data.items():
        pn, po, pc = d["paper"]
        rows.append([
            tool, d["native"], pn, d["original"], po, d["crossover"], pc,
            f"{reduction(d['original'], d['crossover']):.1f}%",
            f"{reduction(po, pc):.1f}%",
            "yes" if d["outputs_consistent"] else "NO",
        ])
    return format_table(
        ["Utility", "Native ms", "(paper)", "w/o CrossOver", "(paper)",
         "w/ CrossOver", "(paper)", "Reduction", "(paper)",
         "Outputs match"],
        rows, "Table 5 — utility tools inspecting another VM")


def section_table6(workers: Optional[int] = None) -> str:
    """Table 6: OpenSSH throughput."""
    data = parallel.run_table6(workers=workers)
    rows = []
    for size, d in data.items():
        pn, pc, pb = d["paper"]
        rows.append([
            size, d["native"], pn, d["crossover"], pc, d["baseline"], pb,
            f"{improvement(d['crossover'], d['baseline']):.0f}%",
            f"{improvement(pc, pb):.0f}%",
        ])
    return format_table(
        ["Size MB", "Native MB/s", "(paper)", "w/ CrossOver", "(paper)",
         "w/o CrossOver", "(paper)", "Improvement", "(paper)"],
        rows, "Table 6 — partitioned OpenSSH scp throughput")


def section_table7(workers: Optional[int] = None) -> str:
    """Table 7: instruction counts."""
    data = parallel.run_table7(workers=workers)
    rows = []
    for op, d in data.items():
        pn, pc, pb = d["paper"]
        rows.append([
            op, int(d["native"]), pn, int(d["crossover"]), pc,
            int(d["baseline"]), pb,
            f"+{int(d['crossover'] - d['native'])}",
        ])
    return format_table(
        ["Benchmark", "Native", "(paper)", "w/ CrossOver", "(paper)",
         "w/o CrossOver", "(paper)", "CrossOver delta"],
        rows, "Table 7 — instruction counts per redirected call")


def _section_figure3(workers: Optional[int] = None) -> str:
    """Figure 3: the multi-CPU world-call scenario."""
    from repro.analysis.figure3 import section_figure3

    return section_figure3()


def _section_figure5(workers: Optional[int] = None) -> str:
    """Figure 5: the extended-VMFUNC datapath state."""
    from repro.analysis.figure5 import section_figure5

    return section_figure5()


def section_figure4(workers: Optional[int] = None) -> str:
    """Figure 4: the cross-VM syscall step trace."""
    d = experiments.run_figure4()
    lines = [f"Figure 4 — cross-VM syscall over VMFUNC "
             f"({d['vmfunc_switches']} exit-free EPT switches):"]
    lines += [f"  {e}" for e in d["events"]]
    return "\n".join(lines)


SECTIONS = {
    "table1": section_table1,
    "figure1": section_figure1,
    "table3": section_table3,
    "figure2": section_figure2,
    "figure3": _section_figure3,
    "figure5": _section_figure5,
    "table4": section_table4,
    "table5": section_table5,
    "table6": section_table6,
    "table7": section_table7,
    "figure4": section_figure4,
}

#: Sections cheap enough for --quick.
QUICK_SECTIONS = ("table1", "figure1", "table3", "figure2", "figure3",
                  "figure5", "table7", "figure4")


def build_report(sections=None, workers: Optional[int] = None) -> str:
    """Assemble the chosen report sections (default: all).  Every
    section takes the pool's worker count; only the Table 4-7 sweeps
    use it."""
    names = sections if sections else list(SECTIONS)
    return "\n\n".join(SECTIONS[name](workers) for name in names)


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Regenerate the CrossOver paper's tables and figures")
    parser.add_argument("--quick", action="store_true",
                        help="only the fast sections (skip Tables 4-6)")
    parser.add_argument("--markdown", action="store_true",
                        help="emit the EXPERIMENTS-style markdown report")
    parser.add_argument("--section", action="append", choices=SECTIONS,
                        help="run only the named section(s)")
    parser.add_argument("--workers", type=worker_count, default=None,
                        metavar="N",
                        help="parallel pool workers for the table sweeps "
                        "(default: one per CPU; the output is identical "
                        "at any count)")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="collect telemetry while the report runs and "
                        "write trace/metrics/matrix/profile artifacts "
                        "to DIR")
    parser.add_argument("--hotspots", type=int, default=10, metavar="N",
                        help="rows in the top-N hotspot table printed "
                        "with --telemetry (default: %(default)s; 0 "
                        "disables)")
    args = parser.parse_args(argv)
    if args.telemetry:
        from repro import telemetry
        from repro.telemetry import export as telemetry_export
        from repro.telemetry import profiler as telemetry_profiler

        telemetry.install(telemetry.TelemetrySession("crossover-report"))
        try:
            rc = main_traced(args)
        finally:
            session = telemetry.uninstall()
            assert session is not None
            paths = telemetry_export.write_artifacts(session,
                                                     args.telemetry)
            if args.hotspots:
                profile = telemetry_profiler.profile_session(session)
                print()
                print(profile.hotspot_table(args.hotspots))
            print(f"telemetry artifacts: {', '.join(sorted(paths.values()))}",
                  file=sys.stderr)
        return rc
    return _dispatch(args)


def main_traced(args) -> int:
    """The report body under an installed telemetry session: the whole
    run lives in one root span so every crossing has a home."""
    from repro import telemetry

    session = telemetry.current()
    assert session is not None
    with session.tracer.span("crossover-report", category="report"):
        return _dispatch(args)


def _dispatch(args) -> int:
    """Execute the parsed ``crossover-report`` request."""
    if args.markdown:
        from repro.analysis.markdown import build_markdown

        print(build_markdown(quick=args.quick, workers=args.workers))
        return 0
    if args.section:
        names = args.section
    elif args.quick:
        names = list(QUICK_SECTIONS)
    else:
        names = list(SECTIONS)
    print(build_report(names, args.workers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
