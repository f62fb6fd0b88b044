"""Seeded fleet campaign behind ``crossover-fleet``.

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

The throughput claims compare at the *top* tenant count; with small
sweeps that never reach baseline saturation, raise ``rate_scale``
(heavier tenants) so the contrast still materializes — the CI smoke
job runs 100 tenants at 8x rate for exactly this reason.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.analysis import parallel
from repro.analysis.experiments import CELL_RUNNERS
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


def _sweep_fields(value: Dict[str, Any]) -> Dict[str, Any]:
    """The cycle-identity surface compared across interleave widths."""
    return {
        "requests": value["requests"],
        "completed": value["completed"],
        "throughput_rps": value["throughput_rps"],
        "sched_events": value["sched_events"],
        "last_completion_cycles": value["last_completion_cycles"],
        "p99": value["latency"]["p99"],
        "p999": value["latency"]["p999"],
    }


def run_campaign(seed: int = 0,
                 tenant_counts: Sequence[int] = TENANT_SWEEP,
                 horizon_ms: float = DEFAULT_HORIZON_MS,
                 workers: Optional[int] = None,
                 churn_every: int = DEFAULT_CHURN_EVERY,
                 cores: int = DEFAULT_CORES,
                 rate_scale: float = 1.0) -> Dict[str, Any]:
    """Run the full sweep and return the ``crossover-fleet/v1``
    artifact (plain data, ``json.dump``-ready, pool-worker
    independent)."""
    counts = tuple(sorted(set(int(n) for n in tenant_counts)))
    if not counts or counts[0] < 1:
        raise ValueError("tenant counts must be positive")
    specs: List[Tuple[str, tuple]] = []
    for count in counts:
        for mechanism in MECHANISMS:
            specs.append(("fleetcell", (count, mechanism, seed, horizon_ms,
                                        1, churn_every, cores, rate_scale)))
    for width in INTERLEAVE_SWEEP:
        if width != 1:   # the 1-lane cell is the main sweep's smallest
            specs.append(("fleetcell", (counts[0], "world_call", seed,
                                        horizon_ms, width, churn_every,
                                        cores, rate_scale)))

    with telemetry.scoped("fleet-campaign") as session:
        results = parallel.run_cells(specs, workers=workers)
        counters = {
            key: value
            for key, value in session.metrics.snapshot()["counters"].items()
            if key.startswith("fleet.")}

    curves: Dict[str, List[Dict[str, Any]]] = {m: [] for m in MECHANISMS}
    cells: Dict[str, Dict[str, Any]] = {}
    sweep: Dict[str, Dict[str, Any]] = {}
    costs: Dict[str, Dict[str, Any]] = {}
    for result in results:
        count, mechanism = result.args[0], result.args[1]
        width = result.args[4]
        value = result.value
        if width != 1:
            sweep[str(width)] = _sweep_fields(value)
            continue
        if count == counts[0] and mechanism == "world_call":
            sweep.setdefault("1", _sweep_fields(value))
        curves[mechanism].append(_curve_point(value))
        cells[f"{mechanism}@{count}"] = value
        costs[mechanism] = value["costs"]
    for points in curves.values():
        points.sort(key=lambda point: point["tenants"])

    top = counts[-1]

    def at_top(mechanism: str) -> Dict[str, Any]:
        return next(point for point in curves[mechanism]
                    if point["tenants"] == top)

    base, world, sless = (at_top(m) for m in MECHANISMS)
    sweep_identity = {json.dumps(fields, sort_keys=True)
                      for fields in sweep.values()}
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
            "cells": sweep,
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


def write_artifact(artifact: Dict[str, Any], path: str) -> None:
    """Serialize deterministically (sorted keys, trailing newline)."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(artifact, stream, indent=2, sort_keys=True)
        stream.write("\n")
