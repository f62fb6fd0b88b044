"""``crossover-audit`` — record, verify and query flight-recorder logs.

Subcommands::

    crossover-audit record --out AUDIT.json [--calls N] [--workers N]
    crossover-audit verify AUDIT.json
    crossover-audit query AUDIT.json [--system S] [--wid N] [--fam F]
                                     [--kind K] [--decision D]
    crossover-audit graph AUDIT.json [--format dot|json]
                                     [--system S] [--variant V]

``record`` runs the (system x variant) workload cells, validates the
artifact against the checked-in ``audit`` schema, and writes the
deterministic ``crossover-audit/v1`` JSON.  ``verify`` replays the
whole chain offline — hash links, causal-graph crossings against the
span tracer's counts, the paper's Figure-2 bound, detector verdicts —
and exits ``1`` naming the first offending record.  ``query`` filters
the flat log; ``graph`` renders the reconstructed causal call graph.

Exit status: ``0`` clean; ``1`` verification or schema violation;
``2`` usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.audit import chain as _chain
from repro.audit import graph as _graph
from repro.audit import workload as _workload
from repro.campaign import worker_count, write_artifact


def _csv(value: str) -> List[str]:
    return [item for item in (part.strip() for part in value.split(","))
            if item]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossover-audit",
        description="Hash-chained flight recorder for world transitions "
                    "and authorization decisions.")
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="record the workload cells into an artifact")
    record.add_argument("--out", default="AUDIT.json", metavar="FILE",
                        help="artifact path (default: %(default)s)")
    record.add_argument("--systems", type=_csv, default=None, metavar="A,B",
                        help="case-study systems (default: "
                             + ",".join(_workload.WORKLOAD_SYSTEMS) + ")")
    record.add_argument("--calls", type=int,
                        default=_workload.DEFAULT_CALLS,
                        help="calls per cell (default: %(default)s)")
    record.add_argument("--workers", type=worker_count, default=None,
                        help="parallel workers (default: one per CPU)")
    record.add_argument("--algo", default="sha256",
                        choices=_chain.ALGORITHMS,
                        help="chain hash (default: %(default)s)")
    record.add_argument("--quiet", action="store_true",
                        help="suppress the summary printout")

    verify = sub.add_parser(
        "verify", help="offline chain + crosscheck verification")
    verify.add_argument("artifact", help="crossover-audit/v1 JSON file")
    verify.add_argument("--quiet", action="store_true",
                        help="report via exit status only")

    query = sub.add_parser("query", help="filter the flat record log")
    query.add_argument("artifact", help="crossover-audit/v1 JSON file")
    query.add_argument("--system", default=None,
                       help="restrict to one case-study system")
    query.add_argument("--variant", default=None,
                       choices=("original", "optimized"))
    query.add_argument("--wid", type=int, default=None,
                       help="records whose caller or callee WID matches")
    query.add_argument("--fam", default=None,
                       help="record family (trace/hw/hv/core/sys/fault)")
    query.add_argument("--kind", default=None,
                       help="record kind (world_call, authorization, ...)")
    query.add_argument("--decision", default=None,
                       choices=("allow", "deny"))
    query.add_argument("--count", action="store_true",
                       help="print only the number of matches")

    graph = sub.add_parser(
        "graph", help="render the reconstructed causal call graph")
    graph.add_argument("artifact", help="crossover-audit/v1 JSON file")
    graph.add_argument("--system", default=None,
                       help="cell to render (default: first cell)")
    graph.add_argument("--variant", default=None,
                       choices=("original", "optimized"))
    graph.add_argument("--format", default="dot", choices=("dot", "json"),
                       help="output format (default: %(default)s)")
    return parser


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def _select_cells(artifact: Dict[str, Any], system: Optional[str],
                  variant: Optional[str]) -> List[Dict[str, Any]]:
    cells = artifact.get("cells", [])
    if system is not None:
        cells = [c for c in cells
                 if c.get("system", "").lower() == system.lower()]
    if variant is not None:
        cells = [c for c in cells if c.get("variant") == variant]
    return cells


def _cmd_record(args) -> int:
    try:
        artifact = _workload.record_workload(
            systems=args.systems, calls=args.calls, workers=args.workers,
            algo=args.algo)
    except ValueError as exc:
        print(f"crossover-audit: {exc}", file=sys.stderr)
        return 2

    from repro.telemetry.schema import load_schema, validate
    schema_errors = validate(artifact, load_schema("audit"))
    for error in schema_errors:
        print(f"crossover-audit: schema violation: {error}",
              file=sys.stderr)
    write_artifact(artifact, args.out)
    summary = artifact["summary"]
    if not args.quiet:
        print(f"wrote {args.out}: {summary['cells']} cells, "
              f"{summary['records']} records, "
              f"{summary['anomalies']} anomalies, crosscheck "
              + ("ok" if summary["crosscheck_ok"] else "FAILED"))
    broken = bool(schema_errors) or not summary["crosscheck_ok"]
    return 1 if broken else 0


def _cmd_verify(args) -> int:
    artifact = _load(args.artifact)
    if artifact.get("schema") != _workload.SCHEMA:
        print(f"crossover-audit: {args.artifact}: not a "
              f"{_workload.SCHEMA} artifact", file=sys.stderr)
        return 1
    violations = _workload.verify_artifact(artifact)
    for violation in violations:
        where = violation["cell"]
        seq = violation["seq"]
        at = f" (seq {seq})" if seq is not None else ""
        print(f"crossover-audit: {where}{at}: [{violation['check']}] "
              f"{violation['message']}", file=sys.stderr)
    if not violations and not args.quiet:
        summary = artifact.get("summary", {})
        print(f"{args.artifact}: verified {summary.get('cells')} cells, "
              f"{summary.get('records')} records; chain intact, "
              f"crosschecks hold")
    return 1 if violations else 0


def _cmd_query(args) -> int:
    artifact = _load(args.artifact)
    cells = _select_cells(artifact, args.system, args.variant)
    matches: List[Dict[str, Any]] = []
    for cell in cells:
        where = f"{cell.get('system')}/{cell.get('variant')}"
        for record in cell.get("log", {}).get("records", []):
            if args.fam is not None and record.get("fam") != args.fam:
                continue
            if args.kind is not None and record.get("kind") != args.kind:
                continue
            if args.decision is not None \
                    and record.get("decision") != args.decision:
                continue
            if args.wid is not None and args.wid not in (
                    record.get("caller_wid"), record.get("callee_wid")):
                continue
            matches.append({"cell": where, **record})
    if args.count:
        print(len(matches))
    else:
        for match in matches:
            print(json.dumps(match, sort_keys=True))
    return 0


def _cmd_graph(args) -> int:
    artifact = _load(args.artifact)
    cells = _select_cells(artifact, args.system, args.variant)
    if not cells:
        print("crossover-audit: no cell matches the selection",
              file=sys.stderr)
        return 2
    cell = cells[0]
    built = _graph.build_graph(cell.get("log", {}))
    if args.format == "json":
        print(json.dumps(built, indent=2, sort_keys=True))
    else:
        print(_graph.to_dot(built))
    return 0


_COMMANDS = {
    "record": _cmd_record,
    "verify": _cmd_verify,
    "query": _cmd_query,
    "graph": _cmd_graph,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"crossover-audit: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (head, grep -m) closed the pipe early
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
