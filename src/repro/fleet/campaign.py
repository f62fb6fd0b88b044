"""Seeded fleet campaign behind ``crossover fleet``.

Sweeps tenant count x mechanism over the sharded fleet with x-ray
trace sampling on (1 in :data:`~repro.xray.trace.DEFAULT_SAMPLE_EVERY`
trace ids, :data:`~repro.xray.trace.DEFAULT_KEEP` traces kept per
cell).  Every cell is a self-contained
:data:`~repro.analysis.experiments.CELL_RUNNERS` entry (fresh
calibration machine + fresh fleet per cell), so the campaign
parallelizes over :func:`repro.analysis.parallel.run_cells` and the
same seed produces a **byte-identical artifact at any pool worker
count and any scheduler lane width** — sampling is a seeded hash of
the trace id, never ``random`` or wall-clock.

The artifact (``crossover-fleet/v2``) states each fact once:

* **cells** — each cell's full fleet result: throughput, latency,
  observatory-shaped windows (so the SLO burn-rate gate evaluates
  fleet runs unchanged) and its ``xray`` payload (per-stage critical
  path, kept traces, exemplars, p99 exemplar, noisy neighbors,
  conservation verdict);
* **tail** — the tail explainer's per-mechanism rows at the top
  tenant count: the p99 exemplar trace, its dominant segment and the
  aggregate contention share.  At fleet scale the baseline tail is
  hypervisor-serialization wait; the fast paths have no such segment;
* **noisy_neighbors** — the baseline top-count cell's per-tenant
  contention attribution (cycles inflicted on others vs suffered);
* **lane_sweep** — the baseline and ``world_call`` cells at the
  smallest count at 1/2/4 scheduler lanes, keyed mechanism then
  width; the ``lane_identical`` claim covers the cycle surface and the
  whole xray payload (events commit in ``(cycle, seq)`` order
  regardless of batch width);
* **conservation** — the per-cell re-verification rollup (every kept
  trace's segments must sum to its latency);
* **summary** — machine-checked claims the CLI gates on.

The throughput/latency curves are not stored: :func:`render_summary`
reads them off ``cells``.  ``crossover fleet --check FILE`` re-derives
``tail``, ``noisy_neighbors``, ``conservation`` and every ``summary``
claim from ``cells`` and ``lane_sweep`` and fails on any
disagreement, so a tampered segment, lane cell or cell number exits
nonzero.

The throughput claims compare at the *top* tenant count; with small
sweeps that never reach baseline saturation, raise ``rate_scale``
(heavier tenants) so the contrast still materializes — the CI smoke
job runs 100 tenants at 8x rate for exactly this reason.
"""

from __future__ import annotations

import argparse
import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.analysis.experiments import CELL_RUNNERS
from repro.campaign import Campaign, claim_failures, sweep, write_artifact
from repro.fleet.scheduler import DEFAULT_CORES, MECHANISMS
from repro.xray.trace import DEFAULT_SAMPLE_EVERY, check_traces, is_sampled

SCHEMA = "crossover-fleet/v2"

#: Default tenant-count sweep (10 -> 1000).
TENANT_SWEEP: Tuple[int, ...] = (10, 100, 1000)

#: Scheduler-lane widths swept for the determinism claim.
INTERLEAVE_SWEEP: Tuple[int, ...] = (1, 2, 4)

#: Mechanisms re-run at every lane width: the baseline (hypervisor
#: contention and blame bookkeeping, the hardest surface to keep
#: batch-width independent) and the paper's world call.
LANE_MECHANISMS: Tuple[str, ...] = ("baseline", "world_call")

#: Default modeled horizon per cell, in modeled milliseconds.
DEFAULT_HORIZON_MS = 10.0

#: Revoke + recreate one tenant's callee world every N completions.
DEFAULT_CHURN_EVERY = 500


def run_fleet_cell(tenants: int, mechanism: str, seed: int,
                   horizon_ms: float, interleave: int = 1,
                   churn_every: int = DEFAULT_CHURN_EVERY,
                   cores: int = DEFAULT_CORES,
                   rate_scale: float = 1.0) -> Dict[str, Any]:
    """One campaign cell: calibrate the mechanism on a fresh two-VM
    machine, stand up the sharded fleet, replay the seeded arrivals
    with an :class:`~repro.xray.trace.XrayRecorder` riding along.
    Self-contained, so it runs identically in-process or in a fork
    worker."""
    from repro.fleet import traffic
    from repro.fleet.scheduler import (FleetScheduler, build_fleet,
                                       calibrate_costs)
    from repro.hw.costs import CYCLES_PER_US
    from repro.xray.trace import XrayRecorder

    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}; "
                         f"choose from {MECHANISMS}")
    specs = traffic.tenant_plan(tenants, seed, rate_scale=rate_scale)
    costs = calibrate_costs(mechanism)
    fleet = build_fleet(specs)
    horizon = int(horizon_ms * 1000 * CYCLES_PER_US)
    recorder = XrayRecorder(seed=seed)
    scheduler = FleetScheduler(
        specs, costs, seed=seed, horizon_cycles=horizon,
        cores=cores, interleave=interleave, churn_every=churn_every,
        fleet=fleet, xray=recorder)
    result = scheduler.run()
    result["rate_scale"] = rate_scale
    result["misses_serviced"] = fleet.service.misses_serviced
    session = telemetry.current()
    if session is not None:
        session.absorb_stats("fleet", {
            "requests": result["requests"],
            "completed": result["completed"],
            "sched_events": result["sched_events"],
            "revocations": result.get("revocations", 0),
            "calls_hot": result["calls"]["hot"],
            "calls_cold": result["calls"]["cold"],
            "misses_serviced": result["misses_serviced"],
            "xray_traces_sampled": recorder.traces_sampled,
        })
    return result


CELL_RUNNERS["fleetcell"] = run_fleet_cell


# ---------------------------------------------------------------------------
# campaign driver + artifact assembly
# ---------------------------------------------------------------------------


def _lane_surface(value: Dict[str, Any]) -> Dict[str, Any]:
    """The identity surface compared across scheduler lane widths: the
    cycle surface plus the whole xray payload (segment vectors,
    exemplars, noisy-neighbor blame)."""
    return {
        "requests": value["requests"],
        "completed": value["completed"],
        "throughput_rps": value["throughput_rps"],
        "sched_events": value["sched_events"],
        "last_completion_cycles": value["last_completion_cycles"],
        "p99": value["latency"]["p99"],
        "p999": value["latency"]["p999"],
        "xray": value["xray"],
    }


def _tail_row(mechanism: str, tenants: int,
              value: Dict[str, Any]) -> Dict[str, Any]:
    """One explainer row: the mechanism's p99 exemplar dissected."""
    xray = value["xray"]
    latency_sum = xray["latency_cycles"]
    exemplar = xray["p99_exemplar"]
    return {
        "mechanism": mechanism,
        "tenants": tenants,
        "p99": value["latency"]["p99"],
        "requests": xray["requests"],
        "contention_share": round(
            xray["contention_cycles"] / latency_sum, 6)
        if latency_sum else 0.0,
        "per_stage": dict(xray["per_stage"]),
        "p99_exemplar": exemplar,
        "dominant_segment": (exemplar["dominant_segment"]
                             if exemplar else None),
    }


def _derive(artifact: Dict[str, Any]) -> Dict[str, Any]:
    """Everything the artifact states about its ``cells`` and
    ``lane_sweep``: ``tail``, ``noisy_neighbors``, ``conservation`` and
    ``summary``.  The run records these; ``--check`` recomputes them."""
    cells = artifact["cells"]
    top = artifact["tenant_counts"][-1]
    tail = [_tail_row(mechanism, top, cells[f"{mechanism}@{top}"])
            for mechanism in MECHANISMS]

    conservation_cells = {key: check_traces(value["xray"])
                          for key, value in sorted(cells.items())}
    conservation = {
        "cells": conservation_cells,
        "checked": sum(v["checked"] for v in conservation_cells.values()),
        "ok": all(v["ok"] for v in conservation_cells.values()),
    }

    base, world, sless = (cells[f"{mechanism}@{top}"]
                          for mechanism in MECHANISMS)
    base_p99 = base["latency"]["p99"]
    churn_every = artifact["churn_every"]
    base_row, *fast_rows = tail
    summary = {
        "world_call_beats_baseline_at_top":
            world["throughput_rps"] > base["throughput_rps"],
        "switchless_beats_baseline_at_top":
            sless["throughput_rps"] > base["throughput_rps"],
        "baseline_saturates_at_top":
            base["throughput_rps"] < 0.95 * base["offered_rps"],
        "baseline_worst_p99_at_top":
            base_p99 is not None
            and all(cell["latency"]["p99"] is not None
                    and base_p99 >= cell["latency"]["p99"]
                    for cell in (world, sless)),
        # Churn only fires once completions reach the period; small
        # smokes legitimately finish under it.
        "churn_exercised":
            churn_every == 0
            or base.get("revocations", 0) > 0
            or base["completed"] < churn_every,
        "lane_identical": all(
            len({json.dumps(surface, sort_keys=True)
                 for surface in widths.values()}) == 1
            for widths in artifact["lane_sweep"].values()),
        "conservation_ok": conservation["ok"],
        # Every kept trace id must re-pass the seeded-hash sampling
        # decision: the sampled set is a pure function of (seed, id),
        # not of execution order.
        "sampling_deterministic": all(
            is_sampled(artifact["seed"], trace["id"], DEFAULT_SAMPLE_EVERY)
            for value in cells.values()
            for trace in value["xray"]["traces"]),
        # Every exemplar must resolve to a kept trace in its own cell.
        "exemplars_resolve": all(
            exm["trace_id"] in {t["id"] for t in value["xray"]["traces"]}
            for value in cells.values()
            for exm in value["xray"]["exemplars"].values()),
        "tail_exemplars_present":
            all(row["p99_exemplar"] is not None for row in tail),
        # The fleet story from trace data alone: the baseline p99
        # exemplar's dominant segment is the hypervisor-serialization
        # wait, while the fast paths carry no such segment at all.
        "baseline_tail_is_hv_serialization":
            base_row["dominant_segment"] == "hv_wait",
        "fast_paths_free_of_hv_wait":
            all(row["per_stage"]["hv_wait"] == 0 for row in fast_rows),
    }
    return {
        "tail": tail,
        "noisy_neighbors": base["xray"]["noisy_neighbors"],
        "conservation": conservation,
        "summary": summary,
    }


def run_campaign(seed: int = 0,
                 tenant_counts: Sequence[int] = TENANT_SWEEP,
                 horizon_ms: float = DEFAULT_HORIZON_MS,
                 workers: Optional[int] = None,
                 churn_every: int = DEFAULT_CHURN_EVERY,
                 cores: int = DEFAULT_CORES,
                 rate_scale: float = 1.0) -> Dict[str, Any]:
    """Validate the fleet shape, run every (tenant count x mechanism)
    cell plus the :data:`LANE_MECHANISMS` at the smallest count on each
    :data:`INTERLEAVE_SWEEP` width, and return the
    ``crossover-fleet/v2`` artifact (plain data, ``json.dump``-ready,
    pool-worker and lane-width independent).  Raises ``ValueError`` on
    a bad fleet shape."""
    counts = tuple(sorted(set(int(n) for n in tenant_counts)))
    if not counts or counts[0] < 1:
        raise ValueError("tenant counts must be positive")
    if not (math.isfinite(horizon_ms) and horizon_ms > 0):
        raise ValueError("horizon_ms must be positive and finite")
    if not (math.isfinite(rate_scale) and rate_scale > 0):
        raise ValueError("rate_scale must be positive and finite")
    if churn_every < 0 or cores < 1:
        raise ValueError("churn_every must be >= 0 and cores >= 1")

    def spec(count: int, mechanism: str, width: int) -> Tuple[str, tuple]:
        return ("fleetcell", (count, mechanism, seed, horizon_ms, width,
                              churn_every, cores, rate_scale))

    specs = [spec(count, mechanism, 1)
             for count in counts for mechanism in MECHANISMS]
    # The 1-lane cells are the main sweep's own.
    specs += [spec(counts[0], mechanism, width)
              for mechanism in LANE_MECHANISMS
              for width in INTERLEAVE_SWEEP if width != 1]
    results, counters = sweep(specs, "fleet-campaign", "fleet.", workers)

    cells: Dict[str, Dict[str, Any]] = {}
    lanes: Dict[str, Dict[str, Any]] = {m: {} for m in LANE_MECHANISMS}
    for result in results:
        count, mechanism, width = result.args[0], result.args[1], \
            result.args[4]
        if width == 1:
            cells[f"{mechanism}@{count}"] = result.value
        else:
            lanes[mechanism][str(width)] = _lane_surface(result.value)
    for mechanism in LANE_MECHANISMS:
        lanes[mechanism]["1"] = _lane_surface(
            cells[f"{mechanism}@{counts[0]}"])

    artifact = {
        "schema": SCHEMA,
        "seed": seed,
        "horizon_ms": horizon_ms,
        "churn_every": churn_every,
        "cores": cores,
        "rate_scale": rate_scale,
        "tenant_counts": list(counts),
        "mechanisms": list(MECHANISMS),
        "cells": cells,
        "lane_sweep": lanes,
        "telemetry": counters,
    }
    artifact.update(_derive(artifact))
    return artifact


def render_summary(artifact: Dict[str, Any]) -> str:
    """The campaign's throughput/p99 curves, read off the cells, as
    fixed-width text."""
    from repro.analysis.tables import format_table
    from repro.hw.costs import us

    def p99us(cell: Dict[str, Any]) -> Optional[float]:
        p99 = cell["latency"]["p99"]
        return None if p99 is None else round(us(p99), 2)

    rows = []
    for count in artifact["tenant_counts"]:
        base, world, sless = (artifact["cells"][f"{mechanism}@{count}"]
                              for mechanism in MECHANISMS)
        rows.append([
            count, base["offered_rps"],
            base["throughput_rps"], world["throughput_rps"],
            sless["throughput_rps"],
            p99us(base), p99us(world), p99us(sless),
        ])
    summary = artifact["summary"]
    return "\n".join([
        format_table(
            ["tenants", "offered rps", "base rps", "wcall rps", "sless rps",
             "base p99us", "wcall p99us", "sless p99us"], rows,
            title="Fleet throughput / p99 vs tenant count"),
        "",
        f"world_call beats baseline at top: "
        f"{summary['world_call_beats_baseline_at_top']}  "
        f"switchless beats baseline at top: "
        f"{summary['switchless_beats_baseline_at_top']}  "
        f"baseline saturates: {summary['baseline_saturates_at_top']}"])


def _render(artifact: Dict[str, Any]) -> str:
    from repro.xray.explain import render_report
    return render_summary(artifact) + "\n\n" + render_report(artifact)


def _failures(artifact: Dict[str, Any]) -> List[str]:
    """Re-run the conservation crosscheck on every cell, re-derive the
    sections and claims that summarize ``cells`` and ``lane_sweep``,
    then gate on the recorded claims."""
    counts = artifact["tenant_counts"]
    expected = {f"{mechanism}@{count}"
                for mechanism in MECHANISMS for count in counts}
    widths = {str(width) for width in INTERLEAVE_SWEEP}
    if (not counts or artifact["mechanisms"] != list(MECHANISMS)
            or set(artifact["cells"]) != expected
            or set(artifact["lane_sweep"]) != set(LANE_MECHANISMS)
            or any(set(lanes) != widths
                   for lanes in artifact["lane_sweep"].values())):
        return ["cells or lane_sweep do not cover the declared sweep"]

    errors = []
    for key in sorted(artifact["cells"]):
        verdict = check_traces(artifact["cells"][key]["xray"])
        if not verdict["ok"]:
            errors.append(
                f"conservation violated in cell {key}: "
                f"segments != latency for {verdict['mismatches']}")
    derived = _derive(artifact)
    for section in ("tail", "noisy_neighbors", "conservation"):
        if artifact[section] != derived[section]:
            errors.append(f"{section} disagrees with the recorded cells")
    recorded = artifact["summary"]
    for name, value in derived["summary"].items():
        if recorded.get(name) != value:
            errors.append(f"claim {name} recorded as "
                          f"{recorded.get(name)}, but the cells say {value}")
    return errors + claim_failures(artifact)


def _tenant_counts(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_arguments(parser: argparse.ArgumentParser) -> None:
    """The fleet-shape, SLO and trace-export flags (fleet-shape values
    are validated by :func:`run_campaign`)."""
    parser.add_argument("--tenants", type=_tenant_counts,
                        default=list(TENANT_SWEEP), metavar="N,N,...",
                        help="comma-separated tenant counts to sweep "
                             "(default: 10,100,1000)")
    parser.add_argument("--horizon-ms", type=float,
                        default=DEFAULT_HORIZON_MS, metavar="MS",
                        help="modeled replay horizon per cell in modeled "
                             "milliseconds (default: %(default)s)")
    parser.add_argument("--churn-every", type=int,
                        default=DEFAULT_CHURN_EVERY, metavar="N",
                        help="revoke + recreate one callee world every N "
                             "completed requests (0 disables; "
                             "default: %(default)s)")
    parser.add_argument("--cores", type=int, default=DEFAULT_CORES,
                        help="modeled core-pool width "
                             "(default: %(default)s)")
    parser.add_argument("--rate-scale", type=float, default=1.0,
                        help="multiply every tenant's request rate "
                             "(default: %(default)s)")
    parser.add_argument("--slo", action="append", default=[],
                        metavar="EXPR",
                        help="SLO objective ('<series>.<stat> <op> <value>') "
                             "evaluated over each top-count cell's windows, "
                             "with exemplar top_cause attribution; "
                             "repeatable")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when any --slo objective is "
                             "violated")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Perfetto/Chrome trace of the sampled "
                             "requests (modeled-cycle axis) here")


def _run(args: argparse.Namespace) -> Dict[str, Any]:
    """Parse ``--slo`` (a bad objective is a ``ValueError`` before any
    cell runs), run the campaign, attach the per-mechanism SLO report
    of the top tenant count as ``slo`` and write ``--trace-out``."""
    from repro.observatory.slo import SloObjective, evaluate_slos

    objectives = [SloObjective.parse(text) for text in args.slo]
    artifact = run_campaign(seed=args.seed, tenant_counts=args.tenants,
                            horizon_ms=args.horizon_ms, workers=args.workers,
                            churn_every=args.churn_every, cores=args.cores,
                            rate_scale=args.rate_scale)
    if objectives:
        top = artifact["tenant_counts"][-1]
        report = {}
        for mechanism in MECHANISMS:
            cell = artifact["cells"][f"{mechanism}@{top}"]
            causes = {int(index): cause["segment"]
                      for index, cause in
                      cell["xray"]["window_causes"].items()}
            report[f"{mechanism}@{top}"] = evaluate_slos(
                objectives, cell["windows"], causes=causes)
        artifact["slo"] = report
    if args.trace_out:
        from repro.xray.export import chrome_trace_from_artifact
        write_artifact(chrome_trace_from_artifact(artifact), args.trace_out)
        if not args.quiet:
            print(f"wrote {args.trace_out}")
    return artifact


CAMPAIGN = Campaign(
    name="fleet", section="fleet",
    help="Sharded fleet campaign: tenant-count x mechanism sweep with "
         "throughput and latency curves, per-request x-ray traces and "
         "critical-path tail attribution.",
    add_arguments=_add_arguments, run=_run, render=_render,
    failures=_failures)
