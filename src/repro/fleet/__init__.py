"""``repro.fleet`` — sharded multi-tenant fleet simulation.

The paper evaluates CrossOver on single VM pairs; this package hosts
*thousands* of worlds across many tenant VMs on one simulated machine
and replays millions of synthetic user requests against them:

* :mod:`repro.fleet.shards` — a sharded world table (contiguous WID
  ranges, per-shard epochs) plus per-shard WT/IWT caches, so one
  tenant's revocations and cache traffic never evict another's cache
  entries or drop its switchless flips;
* :mod:`repro.fleet.scheduler` — a deterministic modeled-cycle event
  loop interleaving thousands of in-flight world calls (issue /
  transition / callee service / return events on a heap keyed by
  ``(cycle, seq)``), with per-call costs calibrated by running real
  calls through ``core/call.py``'s ``mechanism=`` seam;
* :mod:`repro.fleet.traffic` — seeded open-loop arrivals (Poisson and
  bursty ON/OFF per tenant) against partitioned-OpenSSH and HyperShell
  tenant profiles;
* :mod:`repro.fleet.campaign` — the ``crossover fleet`` campaign
  (run by :mod:`repro.campaign`) sweeping tenant count x mechanism,
  every cell traced by :mod:`repro.xray`, into a schema-validated
  ``crossover-fleet/v2`` artifact: per-cell throughput and latency,
  the p99 tail explained per mechanism, and a lane-width identity
  sweep.

Unlike telemetry/faults/switchless this is **not** a module-global
subsystem: it is a runner-layer engine like
:mod:`repro.analysis.parallel` — you build a fleet and run it; nothing
hooks the single-pair hot paths when you don't.
"""

from repro.fleet.shards import (
    DEFAULT_SHARDS,
    DEFAULT_STRIDE,
    ShardedWorldTable,
    ShardedWorldTableCaches,
)

__all__ = [
    "DEFAULT_SHARDS",
    "DEFAULT_STRIDE",
    "ShardedWorldTable",
    "ShardedWorldTableCaches",
]
