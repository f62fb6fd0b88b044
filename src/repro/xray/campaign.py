"""Seeded x-ray campaign behind ``crossover xray``.

Runs the fleet campaign's sweep (:func:`repro.fleet.campaign.run_sweep`)
with trace sampling switched on: every cell is a self-contained
:data:`~repro.analysis.experiments.CELL_RUNNERS` entry, so the sweep
parallelizes over :func:`repro.analysis.parallel.run_cells` and the
same seed produces a **byte-identical artifact at any pool worker
count and any scheduler lane width** — sampling is a seeded hash of
the trace id, never ``random`` or wall-clock.

The artifact (``crossover-xray/v1``) carries:

* **cells** — each swept cell's full fleet result *plus* its ``xray``
  payload (per-stage critical path, kept traces, exemplars, p99
  exemplar, noisy neighbors, conservation verdict) and exemplar-
  annotated latency windows;
* **tail** — the tail explainer's per-mechanism rows at the top
  tenant count: the concrete p99 exemplar trace, its dominant
  segment, and the aggregate contention share.  This is the
  "why is p99 what it is" table — at fleet scale it reproduces the
  PR9 story from trace data alone (the baseline tail is hypervisor-
  serialization wait; the fast paths have no such segment);
* **noisy_neighbors** — the baseline top-count cell's per-tenant
  contention attribution (cycles inflicted on others vs suffered);
* **lane_sweep** — the baseline cell at 1/2/4 scheduler lanes with an
  identity claim over the *trace-level* surface (segment vectors,
  exemplars, blame), strictly stronger than the fleet campaign's
  cycle-identity claim;
* **conservation** — the per-cell re-verification rollup (every kept
  trace's segments must sum to its latency);
* **summary** — machine-checked claims the CLI gates on.

``crossover xray --check FILE`` re-verifies an artifact from disk
alone: schema, the per-cell segment-conservation crosscheck (every
kept trace's segments must sum to its end-to-end latency) and the
claims.  Tamper with a single segment and it exits nonzero.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.campaign import Campaign, claim_failures, write_artifact
from repro.fleet.campaign import (DEFAULT_CHURN_EVERY, DEFAULT_HORIZON_MS,
                                  TENANT_SWEEP, add_fleet_arguments,
                                  run_sweep, run_with_slos)
from repro.fleet.scheduler import DEFAULT_CORES, MECHANISMS
from repro.xray.trace import (DEFAULT_KEEP, DEFAULT_SAMPLE_EVERY,
                              check_traces, is_sampled)

SCHEMA = "crossover-xray/v1"


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


def run_campaign(seed: int = 0,
                 tenant_counts: Sequence[int] = TENANT_SWEEP,
                 horizon_ms: float = DEFAULT_HORIZON_MS,
                 workers: Optional[int] = None,
                 churn_every: int = DEFAULT_CHURN_EVERY,
                 cores: int = DEFAULT_CORES,
                 rate_scale: float = 1.0,
                 sample_every: int = DEFAULT_SAMPLE_EVERY,
                 keep: int = DEFAULT_KEEP) -> Dict[str, Any]:
    """Run the traced sweep and return the ``crossover-xray/v1``
    artifact (plain data, ``json.dump``-ready, pool-worker and
    lane-width independent)."""
    if sample_every < 1 or keep < 1:
        raise ValueError("sample_every and keep must be >= 1")
    # The lane sweep runs the *baseline* (the mechanism with hv
    # contention and blame bookkeeping — the hardest surface to keep
    # batch-width independent) at the smallest count.
    counts, cells, lanes, counters = run_sweep(
        seed, tenant_counts, horizon_ms, workers, churn_every, cores,
        rate_scale, lane_mechanism="baseline",
        sampling=(sample_every, keep))
    lane_identity = {json.dumps(surface, sort_keys=True)
                     for surface in lanes.values()}

    top = counts[-1]
    tail = [_tail_row(mechanism, top, cells[f"{mechanism}@{top}"])
            for mechanism in MECHANISMS]

    conservation_cells = {key: check_traces(value["xray"])
                          for key, value in sorted(cells.items())}
    conservation = {
        "cells": conservation_cells,
        "checked": sum(v["checked"] for v in conservation_cells.values()),
        "ok": all(v["ok"] for v in conservation_cells.values()),
    }

    # Every kept trace id must re-pass the seeded-hash sampling
    # decision — proof the sampled set is a pure function of
    # (seed, id), not of execution order.
    resampled_ok = all(
        is_sampled(seed, trace["id"], sample_every)
        for value in cells.values()
        for trace in value["xray"]["traces"])
    # Every exemplar the artifact mentions must resolve to a kept
    # trace in its own cell (to_dict pins them — this re-checks from
    # the artifact side).
    exemplars_resolve = all(
        exm["trace_id"] in {t["id"] for t in value["xray"]["traces"]}
        for value in cells.values()
        for exm in value["xray"]["exemplars"].values())

    base_row = next(r for r in tail if r["mechanism"] == "baseline")
    fast_rows = [r for r in tail if r["mechanism"] != "baseline"]
    summary = {
        "conservation_ok": conservation["ok"],
        "lane_identical": len(lane_identity) == 1,
        "sampling_deterministic": resampled_ok,
        "exemplars_resolve": exemplars_resolve,
        "tail_exemplars_present":
            all(r["p99_exemplar"] is not None for r in tail),
        # The PR9 story, reproduced from trace data alone: at the top
        # tenant count the baseline p99 exemplar's dominant segment is
        # the hypervisor-serialization wait...
        "baseline_tail_is_hv_serialization":
            base_row["dominant_segment"] == "hv_wait",
        # ...while world_call / switchless traces carry no such
        # contention segment at all.
        "fast_paths_free_of_hv_wait":
            all(r["per_stage"]["hv_wait"] == 0 for r in fast_rows),
    }

    return {
        "schema": SCHEMA,
        "seed": seed,
        "horizon_ms": horizon_ms,
        "churn_every": churn_every,
        "cores": cores,
        "rate_scale": rate_scale,
        "sample_every": sample_every,
        "keep": keep,
        "tenant_counts": list(counts),
        "mechanisms": list(MECHANISMS),
        "cells": cells,
        "tail": tail,
        "noisy_neighbors":
            cells[f"baseline@{top}"]["xray"]["noisy_neighbors"],
        "lane_sweep": {
            "cells": lanes,
            "trace_identical": len(lane_identity) == 1,
        },
        "conservation": conservation,
        "summary": summary,
        "telemetry": counters,
    }


def _add_arguments(parser: argparse.ArgumentParser) -> None:
    add_fleet_arguments(parser)
    parser.add_argument("--sample-every", type=int,
                        default=DEFAULT_SAMPLE_EVERY, metavar="N",
                        help="keep full segment vectors for 1-in-N trace ids "
                             "(seeded hash; default: %(default)s)")
    parser.add_argument("--keep", type=int, default=DEFAULT_KEEP,
                        metavar="N",
                        help="top-latency sampled traces kept per cell "
                             "(exemplar-referenced traces pinned on top; "
                             "default: %(default)s)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Perfetto/Chrome trace of the sampled "
                             "requests (modeled-cycle axis) here")


def _run(args: argparse.Namespace) -> Dict[str, Any]:
    artifact = run_with_slos(args, run_campaign,
                             sample_every=args.sample_every, keep=args.keep)
    if args.trace_out:
        from repro.xray.export import chrome_trace_from_artifact
        write_artifact(chrome_trace_from_artifact(artifact), args.trace_out)
        if not args.quiet:
            print(f"wrote {args.trace_out}")
    return artifact


def _failures(artifact: Dict[str, Any]) -> List[str]:
    """Re-run the conservation crosscheck on every cell, then the
    rollup and the claims."""
    errors = []
    for key in sorted(artifact["cells"]):
        verdict = check_traces(artifact["cells"][key]["xray"])
        if not verdict["ok"]:
            errors.append(
                f"conservation violated in cell {key}: "
                f"segments != latency for {verdict['mismatches']}")
    if not errors and not artifact["conservation"]["ok"]:
        errors.append("conservation rollup not ok")
    return errors + claim_failures(artifact)


def _render(artifact: Dict[str, Any]) -> str:
    from repro.xray.explain import render_report
    return render_report(artifact)


CAMPAIGN = Campaign(
    name="xray", section="xray",
    help="Fleet-scale request tracing: per-request segment vectors, "
         "critical-path tail attribution, histogram exemplars.",
    add_arguments=_add_arguments, run=_run, render=_render,
    failures=_failures)
