"""Seeded fleet campaign behind ``crossover fleet``.

Sweeps tenant count x mechanism over the sharded fleet, every cell a
self-contained :data:`~repro.analysis.experiments.CELL_RUNNERS` entry
(fresh calibration machine + fresh fleet per cell), so the campaign
parallelizes over :func:`repro.analysis.parallel.run_cells` and the
same seed produces a **byte-identical artifact at any pool worker
count** — the determinism the CI smoke job ``cmp``'s.

The artifact (``crossover-fleet/v1``) carries:

* **curves** — per mechanism, throughput and p50/p99/p999 latency as a
  function of tenant count.  At fleet scale the baseline's serialized
  trap transitions saturate the hypervisor: throughput flatlines and
  the tail explodes, while ``world_call`` and switchless keep scaling
  — the paper's core claim, replayed at thousand-tenant scale;
* **cells** — each cell's full result including its observatory-shaped
  windows (counters / gauges / raw-bucket histograms), so the PR8 SLO
  burn-rate gate evaluates fleet runs unchanged;
* **interleave_sweep** — the same cell at 1/2/4 scheduler lanes with a
  ``cycle_identical`` claim (events commit in ``(cycle, seq)`` order
  regardless of batch width);
* **summary** — machine-checked claims the CLI gates on.

The tenant-count x mechanism sweep plus a lane-width sweep
(:func:`run_sweep`), the fleet-shape flags and their validation, and
the top-count SLO evaluation are shared with the x-ray campaign, which
runs the same sweep with trace sampling on.

The throughput claims compare at the *top* tenant count; with small
sweeps that never reach baseline saturation, raise ``rate_scale``
(heavier tenants) so the contrast still materializes — the CI smoke
job runs 100 tenants at 8x rate for exactly this reason.
"""

from __future__ import annotations

import argparse
import json
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.analysis.experiments import CELL_RUNNERS
from repro.campaign import Campaign, claim_failures, sweep
from repro.fleet.scheduler import DEFAULT_CORES, MECHANISMS

SCHEMA = "crossover-fleet/v1"

#: Default tenant-count sweep (10 -> 1000).
TENANT_SWEEP: Tuple[int, ...] = (10, 100, 1000)

#: Scheduler-lane widths swept for the determinism claim.
INTERLEAVE_SWEEP: Tuple[int, ...] = (1, 2, 4)

#: Default modeled horizon per cell, in modeled milliseconds.
DEFAULT_HORIZON_MS = 10.0

#: Revoke + recreate one tenant's callee world every N completions.
DEFAULT_CHURN_EVERY = 500


def run_fleet_cell(tenants: int, mechanism: str, seed: int,
                   horizon_ms: float, interleave: int = 1,
                   churn_every: int = DEFAULT_CHURN_EVERY,
                   cores: int = DEFAULT_CORES,
                   rate_scale: float = 1.0,
                   xray_sample: int = 0,
                   xray_keep: int = 24) -> Dict[str, Any]:
    """One campaign cell: calibrate the mechanism on a fresh two-VM
    machine, stand up the sharded fleet, replay the seeded arrivals.
    Self-contained, so it runs identically in-process or in a fork
    worker.

    ``xray_sample`` > 0 rides an :class:`~repro.xray.trace.
    XrayRecorder` along (1-in-N seeded-hash trace sampling, ``xray_keep``
    top traces kept): the result gains an ``xray`` payload and
    histogram exemplars, with every timing number unchanged.
    """
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
    recorder = (XrayRecorder(seed=seed, sample_every=xray_sample,
                             keep=xray_keep)
                if xray_sample > 0 else None)
    scheduler = FleetScheduler(
        specs, costs, seed=seed, horizon_cycles=horizon,
        cores=cores, interleave=interleave, churn_every=churn_every,
        fleet=fleet, xray=recorder)
    result = scheduler.run()
    result["rate_scale"] = rate_scale
    result["misses_serviced"] = fleet.service.misses_serviced
    session = telemetry.current()
    if session is not None:
        stats = {
            "requests": result["requests"],
            "completed": result["completed"],
            "sched_events": result["sched_events"],
            "revocations": result.get("revocations", 0),
            "calls_hot": result["calls"]["hot"],
            "calls_cold": result["calls"]["cold"],
            "misses_serviced": result["misses_serviced"],
        }
        if recorder is not None:
            stats["xray_traces_sampled"] = recorder.traces_sampled
        session.absorb_stats("fleet", stats)
    return result


CELL_RUNNERS["fleetcell"] = run_fleet_cell


# ---------------------------------------------------------------------------
# campaign driver + artifact assembly
# ---------------------------------------------------------------------------


def _curve_point(value: Dict[str, Any]) -> Dict[str, Any]:
    latency = value["latency"]
    return {
        "tenants": value["tenants"],
        "offered_rps": value["offered_rps"],
        "throughput_rps": value["throughput_rps"],
        "p50": latency["p50"], "p90": latency["p90"],
        "p99": latency["p99"], "p999": latency["p999"],
        "mean": latency["mean"], "max": latency["max"],
        "requests": value["requests"],
        "completed": value["completed"],
        "completed_by_horizon": value["completed_by_horizon"],
        "sched_events": value["sched_events"],
        "hv_busy_cycles": value["hv"]["busy_cycles"],
        "hv_wait_cycles": value["hv"]["wait_cycles"],
        "calls_hot": value["calls"]["hot"],
        "calls_cold": value["calls"]["cold"],
        "revocations": value.get("revocations", 0),
    }


def _lane_surface(value: Dict[str, Any]) -> Dict[str, Any]:
    """The identity surface compared across scheduler lane widths: the
    cycle surface, plus the whole xray payload (segment vectors,
    exemplars, noisy-neighbor blame) when the cell was traced."""
    surface = {
        "requests": value["requests"],
        "completed": value["completed"],
        "throughput_rps": value["throughput_rps"],
        "sched_events": value["sched_events"],
        "last_completion_cycles": value["last_completion_cycles"],
        "p99": value["latency"]["p99"],
        "p999": value["latency"]["p999"],
    }
    if "xray" in value:
        surface["xray"] = value["xray"]
    return surface


def run_sweep(seed: int, tenant_counts: Sequence[int], horizon_ms: float,
              workers: Optional[int], churn_every: int, cores: int,
              rate_scale: float, lane_mechanism: str = "world_call",
              sampling: Tuple[int, ...] = ()
              ) -> Tuple[Tuple[int, ...], Dict[str, Dict[str, Any]],
                         Dict[str, Dict[str, Any]], Dict[str, int]]:
    """Validate the fleet shape, then run every (tenant count x
    mechanism) cell plus ``lane_mechanism`` at the smallest count on
    each :data:`INTERLEAVE_SWEEP` lane width.  ``sampling`` is the
    cells' trailing ``(xray_sample, xray_keep)``, empty for untraced
    cells.  Returns ``(counts, cells, lanes, counters)``: the sorted
    counts, cells keyed ``mechanism@count``, the lane surfaces keyed by
    width, and the merged ``fleet.*`` telemetry counters."""
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
                              churn_every, cores, rate_scale) + sampling)

    specs = [spec(count, mechanism, 1)
             for count in counts for mechanism in MECHANISMS]
    # The 1-lane cell is the main sweep's own.
    specs += [spec(counts[0], lane_mechanism, width)
              for width in INTERLEAVE_SWEEP if width != 1]
    results, counters = sweep(specs, "fleet-campaign", "fleet.", workers)

    cells: Dict[str, Dict[str, Any]] = {}
    lanes: Dict[str, Dict[str, Any]] = {}
    for result in results:
        count, mechanism, width = result.args[0], result.args[1], \
            result.args[4]
        if width == 1:
            cells[f"{mechanism}@{count}"] = result.value
        else:
            lanes[str(width)] = _lane_surface(result.value)
    lanes["1"] = _lane_surface(cells[f"{lane_mechanism}@{counts[0]}"])
    return counts, cells, lanes, counters


def run_campaign(seed: int = 0,
                 tenant_counts: Sequence[int] = TENANT_SWEEP,
                 horizon_ms: float = DEFAULT_HORIZON_MS,
                 workers: Optional[int] = None,
                 churn_every: int = DEFAULT_CHURN_EVERY,
                 cores: int = DEFAULT_CORES,
                 rate_scale: float = 1.0) -> Dict[str, Any]:
    """Run the full sweep and return the ``crossover-fleet/v1``
    artifact (plain data, ``json.dump``-ready, pool-worker
    independent).  Raises ``ValueError`` on a bad fleet shape."""
    counts, cells, sweep_cells, counters = run_sweep(
        seed, tenant_counts, horizon_ms, workers, churn_every, cores,
        rate_scale)
    curves = {mechanism: [_curve_point(cells[f"{mechanism}@{count}"])
                          for count in counts]
              for mechanism in MECHANISMS}
    costs = {mechanism: cells[f"{mechanism}@{counts[-1]}"]["costs"]
             for mechanism in MECHANISMS}

    base, world, sless = (curves[m][-1] for m in MECHANISMS)   # top count
    sweep_identity = {json.dumps(fields, sort_keys=True)
                      for fields in sweep_cells.values()}
    summary = {
        "world_call_beats_baseline_at_top":
            world["throughput_rps"] > base["throughput_rps"],
        "switchless_beats_baseline_at_top":
            sless["throughput_rps"] > base["throughput_rps"],
        "baseline_saturates_at_top":
            base["throughput_rps"] < 0.95 * base["offered_rps"],
        "baseline_worst_p99_at_top":
            base["p99"] is not None
            and base["p99"] >= world["p99"]
            and base["p99"] >= sless["p99"],
        "interleave_identical": len(sweep_identity) == 1,
        # Churn only fires once completions reach the period; small
        # smokes legitimately finish under it.
        "churn_exercised":
            churn_every == 0
            or base["revocations"] > 0
            or base["completed"] < churn_every,
    }

    return {
        "schema": SCHEMA,
        "seed": seed,
        "horizon_ms": horizon_ms,
        "churn_every": churn_every,
        "cores": cores,
        "rate_scale": rate_scale,
        "tenant_counts": list(counts),
        "mechanisms": list(MECHANISMS),
        "costs": costs,
        "curves": curves,
        "cells": cells,
        "interleave_sweep": {
            "cells": sweep_cells,
            "cycle_identical": len(sweep_identity) == 1,
        },
        "summary": summary,
        "telemetry": counters,
    }


def render_summary(artifact: Dict[str, Any]) -> str:
    """The campaign's headline curves as fixed-width text."""
    from repro.analysis.tables import format_table
    from repro.hw.costs import us

    def p99us(point: Dict[str, Any]) -> Optional[float]:
        return None if point["p99"] is None else round(us(point["p99"]), 2)

    rows = []
    by_count: Dict[int, Dict[str, Dict[str, Any]]] = {}
    for mechanism, points in artifact["curves"].items():
        for point in points:
            by_count.setdefault(point["tenants"], {})[mechanism] = point
    for count in sorted(by_count):
        group = by_count[count]
        base = group["baseline"]
        rows.append([
            count, base["offered_rps"],
            base["throughput_rps"], group["world_call"]["throughput_rps"],
            group["switchless"]["throughput_rps"],
            p99us(base), p99us(group["world_call"]),
            p99us(group["switchless"]),
        ])
    lines = [format_table(
        ["tenants", "offered rps", "base rps", "wcall rps", "sless rps",
         "base p99us", "wcall p99us", "sless p99us"], rows,
        title="Fleet throughput / p99 vs tenant count")]
    summary = artifact["summary"]
    lines.append("")
    lines.append(
        f"world_call beats baseline at top: "
        f"{summary['world_call_beats_baseline_at_top']}  "
        f"switchless beats baseline at top: "
        f"{summary['switchless_beats_baseline_at_top']}  "
        f"baseline saturates: {summary['baseline_saturates_at_top']}  "
        f"1/2/4-lane cycle-identical: {summary['interleave_identical']}")
    return "\n".join(lines)


def _tenant_counts(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    """The fleet-shape and SLO flags shared by ``fleet`` and ``xray``
    (values are validated by :func:`run_sweep`)."""
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
                             "evaluated over each top-count cell's windows "
                             "(traced cells add exemplar top_cause "
                             "attribution); repeatable")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when any --slo objective is "
                             "violated")


def run_with_slos(args: argparse.Namespace,
                  run: Callable[..., Dict[str, Any]],
                  **extra: Any) -> Dict[str, Any]:
    """Parse ``--slo`` (a bad objective is a ``ValueError`` before any
    cell runs), call ``run`` with the shared flags' values plus
    ``extra``, and attach the per-mechanism SLO report of the top
    tenant count as ``slo``."""
    from repro.observatory.slo import SloObjective, evaluate_slos

    objectives = [SloObjective.parse(text) for text in args.slo]
    artifact = run(seed=args.seed, tenant_counts=args.tenants,
                   horizon_ms=args.horizon_ms, workers=args.workers,
                   churn_every=args.churn_every, cores=args.cores,
                   rate_scale=args.rate_scale, **extra)
    if objectives:
        top = artifact["tenant_counts"][-1]
        report = {}
        for mechanism in artifact["mechanisms"]:
            cell = artifact["cells"][f"{mechanism}@{top}"]
            causes = {int(index): cause["segment"]
                      for index, cause in cell.get("xray", {}).get(
                          "window_causes", {}).items()}
            report[f"{mechanism}@{top}"] = evaluate_slos(
                objectives, cell["windows"], causes=causes)
        artifact["slo"] = report
    return artifact


CAMPAIGN = Campaign(
    name="fleet", section="fleet",
    help="Sharded fleet campaign: tenant-count x mechanism sweep with "
         "throughput and latency curves.",
    add_arguments=add_fleet_arguments,
    run=lambda args: run_with_slos(args, run_campaign),
    render=render_summary,
    failures=claim_failures)
