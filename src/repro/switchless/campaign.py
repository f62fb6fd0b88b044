"""Seeded switchless evaluation campaign behind ``crossover switchless``.

Three sections, each assembled from independent cells so the campaign
parallelizes over :func:`repro.analysis.parallel.run_cells` and the
same seed produces a **byte-identical artifact at any pool worker
count**:

* **three_way** — the Table-4 lmbench rows through each call transport
  (baseline trap / world_call / force-mode switchless), reusing the
  ``mechanism`` cell from :mod:`repro.analysis.experiments`;
* **adaptive** — the adaptive-policy proof: a seeded burst/idle call
  schedule replayed under static world_call, static (force-mode)
  switchless, and the adaptive engine.  On the high-call-rate
  ``bursty`` workload the adaptive engine must beat static world_call
  (it flips the hot site to the ring path); on the ``sparse`` workload
  it must stay on world_call (too few calls per window to amortize the
  worker wakeups);
* **worker_sweep** — the same forced-switchless schedule at 1/2/4
  *engine* worker contexts: with one hot site the extra workers stay
  idle, so the modeled call cycles are identical — the determinism
  claim the CI smoke job ``cmp``'s.

Modeled cycles only — no wall-clock enters any number.
"""

from __future__ import annotations

import argparse
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.experiments import CELL_RUNNERS, TABLE4_OPS
from repro.campaign import Campaign, claim_failures, sweep

SCHEMA = "crossover-switchless/v1"

#: The three transports compared everywhere in this campaign.
MECHANISMS: Tuple[str, ...] = ("world_call", "switchless", "adaptive")

#: Seeded burst/idle call-schedule shapes (counts and cycles).
WORKLOADS: Dict[str, Dict[str, int]] = {
    # High call rate: bursts big enough to roll the policy window and
    # amortize the flip; idle gaps long enough to park the worker.
    "bursty": {"phases": 8, "burst_lo": 150, "burst_hi": 250,
               "idle_lo": 120_000, "idle_hi": 240_000},
    # Low call rate: a handful of calls per window — flipping would
    # only buy futex wakeups, so the adaptive engine must not.
    "sparse": {"phases": 8, "burst_lo": 2, "burst_hi": 6,
               "idle_lo": 300_000, "idle_hi": 600_000},
}

#: Engine worker-context counts swept for the determinism claim.
WORKER_SWEEP: Tuple[int, ...] = (1, 2, 4)


def schedule(workload: str, seed: int) -> List[Tuple[int, int]]:
    """The seeded ``(burst_calls, idle_cycles)`` phase list — the same
    for every mechanism, so the comparison differs only in transport."""
    shape = WORKLOADS[workload]
    rng = random.Random(f"switchless:{workload}:{seed}")
    return [(rng.randint(shape["burst_lo"], shape["burst_hi"]),
             rng.randint(shape["idle_lo"], shape["idle_hi"]))
            for _ in range(shape["phases"])]


class _WorldCallHarness:
    """A fresh two-VM world-call surface: kernel worlds on both sides,
    a NULL-ish syscall (``getppid``) shuttled via ``runtime.call`` —
    the lmbench NULL-call shape the paper's Table 4 leads with."""

    def __init__(self) -> None:
        from repro.core.call import CallRequest, WorldCallRuntime
        from repro.core.world import WorldRegistry
        from repro.hw.costs import FEATURES_CROSSOVER
        from repro.testbed import build_two_vm_machine, enter_vm_kernel

        machine, vm1, k1, vm2, k2 = build_two_vm_machine(
            features=FEATURES_CROSSOVER)
        machine.cpu.trace.enabled = False
        self.machine = machine
        self.cpu = machine.cpu
        registry = WorldRegistry(machine)
        self.runtime = WorldCallRuntime(machine, registry)
        executor = k2.spawn("switchless-executor")

        def entry(request: CallRequest):
            name, *args = request.payload
            return k2.syscalls.invoke(executor, name, *args)

        enter_vm_kernel(machine, vm1)
        self.caller = registry.create_kernel_world(k1, label="K(vm1)")
        enter_vm_kernel(machine, vm2)
        self.callee = registry.create_kernel_world(
            k2, handler=entry, service_process=executor, label="K(vm2)")
        enter_vm_kernel(machine, vm1)
        self.runtime.setup_channel(self.caller, self.callee, pages=16)
        self.cpu.write_cr3(k1.master_page_table)

    def call(self) -> Any:
        return self.runtime.call(self.caller, self.callee.wid,
                                 ("getppid",), authorize=False)

    def idle(self, cycles: int) -> None:
        """Advance the modeled clock without issuing calls (the gap
        between bursts that decides hot vs parked workers)."""
        from repro.hw.costs import Cost

        self.cpu.perf.charge("idle", Cost(0, cycles))


def run_switchless_cell(workload: str, mechanism: str, seed: int,
                        workers: int = 1) -> Dict[str, Any]:
    """One campaign cell: the seeded schedule of ``workload`` through
    one transport.  Self-contained (fresh machine + engine), so it runs
    identically in-process or inside a fork worker."""
    from repro import switchless as _sl
    from repro.core import convention, fastpath
    from repro.switchless import SwitchlessEngine

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}; "
                         f"choose from {MECHANISMS}")
    convention.clear_caches()
    engine = None
    if mechanism != "world_call":
        engine = SwitchlessEngine(force=mechanism == "switchless",
                                  workers=workers)
    try:
        with fastpath.scoped(True), _sl.scoped(engine):
            harness = _WorldCallHarness()
            cpu = harness.cpu
            plan = schedule(workload, seed)
            calls = 0
            cycles_calls = 0
            start = cpu.perf.cycles
            for burst, idle in plan:
                for _ in range(burst):
                    before = cpu.perf.cycles
                    harness.call()
                    cycles_calls += cpu.perf.cycles - before
                    calls += 1
                harness.idle(idle)
    finally:
        convention.clear_caches()
    cell: Dict[str, Any] = {
        "workload": workload,
        "mechanism": mechanism,
        "workers": workers,
        "calls": calls,
        "cycles_calls": cycles_calls,
        "cycles_total": cpu.perf.cycles - start,
        "mean_call_cycles": round(cycles_calls / calls, 2),
    }
    if engine is not None:
        cell["switchless"] = {"stats": engine.stats.to_dict(),
                              "tuning": engine.tuning(),
                              "policy": engine.policy.snapshot()}
    return cell


CELL_RUNNERS["switchlesscell"] = run_switchless_cell


# ---------------------------------------------------------------------------
# campaign driver + artifact assembly
# ---------------------------------------------------------------------------


def run_campaign(seed: int = 0, iterations: int = 5,
                 workers: Optional[int] = None) -> Dict[str, Any]:
    """Run the full campaign and return the ``crossover-switchless/v1``
    artifact (plain data, ``json.dump``-ready, pool-worker independent).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    specs: List[Tuple[str, tuple]] = []
    for transport in ("baseline", "world_call", "switchless"):
        specs.append(("mechanism", (transport, iterations)))
    for workload in sorted(WORKLOADS):
        for mechanism in MECHANISMS:
            specs.append(("switchlesscell", (workload, mechanism, seed, 1)))
    for count in WORKER_SWEEP:
        if count != 1:   # the 1-worker cell is the adaptive section's
            specs.append(("switchlesscell", ("bursty", "switchless", seed,
                                             count)))

    results, counters = sweep(specs, "switchless-campaign", "switchless.",
                              workers)

    three_way: Dict[str, Dict[str, float]] = {op: {} for op in TABLE4_OPS}
    adaptive: Dict[str, Dict[str, Any]] = {}
    sweep_cells: Dict[str, Dict[str, Any]] = {}
    for result in results:
        value = result.value
        if result.runner == "mechanism":
            transport = result.args[0]
            for op, usec in value["rows"].items():
                three_way[op][transport] = usec
            continue
        workload, mechanism, _seed, count = result.args
        if count != 1:
            sweep_cells[str(count)] = {
                "cycles_calls": value["cycles_calls"],
                "mean_call_cycles": value["mean_call_cycles"],
                "stats": value["switchless"]["stats"],
            }
            continue
        entry = adaptive.setdefault(workload, {"mechanisms": {}})
        cell = {"calls": value["calls"],
                "cycles_calls": value["cycles_calls"],
                "mean_call_cycles": value["mean_call_cycles"]}
        if "switchless" in value:
            cell.update(value["switchless"])
        entry["mechanisms"][mechanism] = cell
        if mechanism == "switchless" and count == 1:
            sweep_cells.setdefault("1", {
                "cycles_calls": value["cycles_calls"],
                "mean_call_cycles": value["mean_call_cycles"],
                "stats": value["switchless"]["stats"],
            })

    for workload, entry in adaptive.items():
        by = entry["mechanisms"]
        entry["adaptive_beats_world_call"] = (
            by["adaptive"]["cycles_calls"] < by["world_call"]["cycles_calls"])
        entry["adaptive_flips"] = len(by["adaptive"]["policy"]["flips"])
        best_static = min(by["world_call"]["cycles_calls"],
                          by["switchless"]["cycles_calls"])
        entry["adaptive_vs_best_static_percent"] = round(
            100.0 * (by["adaptive"]["cycles_calls"] / best_static - 1.0), 2)

    sweep_cycles = {entry["cycles_calls"] for entry in sweep_cells.values()}
    tuning = adaptive["bursty"]["mechanisms"]["adaptive"]["tuning"]

    return {
        "schema": SCHEMA,
        "seed": seed,
        "iterations": iterations,
        "three_way": three_way,
        "adaptive": adaptive,
        "worker_sweep": {
            "cells": sweep_cells,
            "cycles_identical": len(sweep_cycles) == 1,
        },
        "tuning": tuning,
        "summary": {
            "bursty_adaptive_beats_world_call":
                adaptive["bursty"]["adaptive_beats_world_call"],
            "sparse_adaptive_stays_world_call":
                adaptive["sparse"]["adaptive_flips"] == 0,
            "worker_sweep_deterministic": len(sweep_cycles) == 1,
        },
        "telemetry": counters,
    }


def render_summary(artifact: Dict[str, Any]) -> str:
    """The campaign's headline numbers as fixed-width text."""
    from repro.analysis.tables import format_table

    lines: List[str] = []
    rows = [[op, by.get("baseline"), by.get("world_call"),
             by.get("switchless")]
            for op, by in artifact["three_way"].items()]
    lines.append(format_table(
        ["operation", "baseline", "world_call", "switchless"], rows,
        title="Three-way lmbench latency (us)"))
    lines.append("")
    rows = []
    for workload in sorted(artifact["adaptive"]):
        entry = artifact["adaptive"][workload]
        by = entry["mechanisms"]
        rows.append([workload,
                     by["world_call"]["mean_call_cycles"],
                     by["switchless"]["mean_call_cycles"],
                     by["adaptive"]["mean_call_cycles"],
                     entry["adaptive_flips"],
                     "yes" if entry["adaptive_beats_world_call"] else "no"])
    lines.append(format_table(
        ["workload", "world_call", "switchless", "adaptive", "flips",
         "adaptive wins"], rows,
        title="Adaptive policy (mean call cycles)"))
    summary = artifact["summary"]
    lines.append("")
    lines.append(
        f"bursty: adaptive beats world_call: "
        f"{summary['bursty_adaptive_beats_world_call']}  "
        f"sparse: stays world_call: "
        f"{summary['sparse_adaptive_stays_world_call']}  "
        f"1/2/4-worker cycles identical: "
        f"{summary['worker_sweep_deterministic']}")
    tuning = artifact["tuning"]
    lines.append(f"tuned: workers={tuning['workers']} "
                 f"spin_budget={tuning['spin_budget']}")
    return "\n".join(lines)


def _add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--iterations", type=int, default=5,
                        help="lmbench iterations per three-way cell "
                             "(default: %(default)s)")


CAMPAIGN = Campaign(
    name="switchless", section="switchless",
    help="Deterministic switchless-call evaluation campaign (three-way "
         "comparison + adaptive-policy proof).",
    add_arguments=_add_arguments,
    run=lambda args: run_campaign(seed=args.seed, iterations=args.iterations,
                                  workers=args.workers),
    render=render_summary, failures=claim_failures)
