"""``crossover <campaign>`` — one harness for the recorded campaigns.

The six campaigns (``faults``, ``switchless``, ``fleet``, ``audit``,
``observatory``, ``paper``) each keep their cell runner and artifact
assembly in their own package and declare one :class:`Campaign` record
there (see :data:`CAMPAIGNS`).  Everything they used to copy lives
here once: the telemetry-scoped cell :func:`sweep`, the deterministic
:func:`write_artifact`, the verify path (schema, then the campaign's
own :attr:`Campaign.failures`), the SLO gate and the exit-code policy::

    crossover faults --ops 6 --seed 42 --out FAULTS.json
    crossover switchless --iterations 2 --workers 4 --quiet
    crossover fleet --tenants 10,50,100 --rate-scale 8 --horizon-ms 5
    crossover fleet --strict --slo 'fleet.latency.cycles.p99 < 2000000'
    crossover fleet --out FLEET.json --trace-out fleet.trace.json
    crossover fleet --check FLEET.json   # re-verify an artifact from disk
    crossover audit --out AUDIT.json
    crossover observatory --slo 'world_call.cycles.p99 < 100000' \
        --html dashboard.html
    crossover paper --markdown paper.md --out PAPER.json

``--check FILE`` loads an artifact instead of running the sweep and
sends it down the same verify path a live run takes, so it works for
every campaign.

Exit status: ``0`` the artifact passes its schema and every claim,
crosscheck and conservation check, and no ``--strict`` SLO objective
is violated;
``1`` one of those failed; ``2`` usage error (bad flag, bad value, or
an unreadable ``--check`` file).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Artifact = Dict[str, Any]

#: Subcommand name -> the module declaring its ``CAMPAIGN`` record
#: (imported lazily: the campaign modules import this one).
CAMPAIGNS: Dict[str, str] = {
    "faults": "repro.faults.campaign",
    "switchless": "repro.switchless.campaign",
    "fleet": "repro.fleet.campaign",
    "audit": "repro.audit.workload",
    "observatory": "repro.observatory.campaign",
    "paper": "repro.analysis.report",
}


@dataclass(frozen=True)
class Campaign:
    """What one campaign contributes to the harness."""

    name: str
    #: Section of the checked-in schema bundle the artifact validates
    #: against (:func:`repro.telemetry.schema.load_schema`).
    section: str
    help: str
    #: Adds the campaign's own flags to its subcommand parser.
    add_arguments: Callable[[argparse.ArgumentParser], None]
    #: Runs the sweep; raises ``ValueError`` on bad input.
    run: Callable[[argparse.Namespace], Artifact]
    render: Callable[[Artifact], str]
    #: Claim, crosscheck and conservation failures of a schema-valid
    #: artifact (empty when clean).
    failures: Callable[[Artifact], List[str]]
    #: Whether the sweep reads ``--seed`` (only seeded campaigns get it).
    seeded: bool = True


def sweep(specs: Sequence[Tuple[str, tuple]], label: str, prefix: str,
          workers: Optional[int]) -> Tuple[list, Dict[str, int]]:
    """Run cells under one counters-only telemetry session; return the
    cell results (spec order) and the merged counters whose names start
    with ``prefix``."""
    from repro import telemetry
    from repro.analysis import parallel

    with telemetry.scoped(label, spans=False) as session:
        results = parallel.run_cells(list(specs), workers=workers)
        counters = {
            key: value
            for key, value in session.metrics.snapshot()["counters"].items()
            if key.startswith(prefix)}
    return results, counters


def write_artifact(artifact: Artifact, path: str) -> None:
    """Serialize deterministically (sorted keys, trailing newline)."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(artifact, stream, indent=2, sort_keys=True)
        stream.write("\n")


def claim_failures(artifact: Artifact) -> List[str]:
    """Every ``summary`` claim that does not hold."""
    return [f"claim failed: {name}"
            for name, ok in artifact["summary"].items() if not ok]


def load(name: str) -> Campaign:
    return importlib.import_module(CAMPAIGNS[name]).CAMPAIGN


def verify(campaign: Campaign, artifact: Artifact) -> List[str]:
    """Schema first; the campaign's failures only on a schema-valid
    artifact (their checks read its fields)."""
    from repro.telemetry.schema import load_schema, validate

    errors = [f"schema violation: {error}"
              for error in validate(artifact, load_schema(campaign.section))]
    return errors or campaign.failures(artifact)


def worker_count(text: str) -> int:
    """``--workers`` argument type: a positive int, else a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossover",
        description="Run, verify and write one of the recorded campaigns.")
    subparsers = parser.add_subparsers(dest="campaign", required=True,
                                       metavar="{" + ",".join(CAMPAIGNS)
                                       + "}")
    for name in CAMPAIGNS:
        campaign = load(name)
        sub = subparsers.add_parser(name, help=campaign.help,
                                    description=campaign.help)
        if campaign.seeded:
            sub.add_argument("--seed", type=int, default=0,
                             help="campaign seed (default: %(default)s)")
        sub.add_argument("--workers", type=worker_count, default=None,
                         help="parallel pool workers (default: one per "
                              "CPU; the artifact is identical at any count)")
        sub.add_argument("--out", default=None, metavar="FILE",
                         help="write the artifact here")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress the report printout")
        sub.add_argument("--check", default=None, metavar="FILE",
                         help="re-verify an existing artifact instead of "
                              "running the sweep")
        campaign.add_arguments(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:   # argparse usage error (2) or --help (0)
        return int(stop.code or 0)
    campaign = load(args.campaign)
    prog = f"crossover {campaign.name}"

    if args.check is not None:
        try:
            with open(args.check, encoding="utf-8") as stream:
                artifact = json.load(stream)
        except (OSError, ValueError) as error:
            print(f"{prog}: cannot read {args.check}: {error}",
                  file=sys.stderr)
            return 2
    else:
        try:
            artifact = campaign.run(args)
        except ValueError as error:
            print(f"{prog}: {error}", file=sys.stderr)
            return 2
        if not args.quiet:
            print(campaign.render(artifact))

    errors = verify(campaign, artifact)
    for error in errors:
        print(f"{prog}: {error}", file=sys.stderr)
    if args.out:
        write_artifact(artifact, args.out)
        if not args.quiet:
            print(f"wrote {args.out}")
    if args.check is not None and not args.quiet:
        print(f"{args.check}: {'FAIL' if errors else 'ok'}")

    # ``slo`` is one report (observatory) or one per cell (fleet).
    slo = {} if errors else artifact.get("slo", {})
    burned = any(report["violated"] for report in
                 ([slo] if "violated" in slo else slo.values()))
    if burned:
        print(f"{prog}: SLO violated", file=sys.stderr)
    strict = getattr(args, "strict", False)
    return 1 if errors or (burned and strict) else 0


if __name__ == "__main__":
    sys.exit(main())
