"""Run one workload in this (fresh, single-threaded) process.

Started by ``run.py``; prints one JSON object as the last line of
stdout.  Modes:

``setup``  set up, report ``setup_s``, exit;
``run``    set up, then run timed rounds until both ``--rounds`` (or
           the workload's minimum) and ``--seconds`` are reached;
``trace``  install the span wrappers first, set up, run one traced
           round and report the per-layer counters.

``setup_s`` counts from ``--start-ns``, the parent's monotonic clock
just before it started this process, to the end of set-up, scaled by
host-speed probes taken at process start and right after set-up (see
``timing.py``), as every unit of a round is.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import time
from collections import Counter
from typing import Any, Dict, List

from timing import REFERENCE_S, Units, probe
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

_MARSHAL_HITS = ("encode_hits", "decode_hits", "roundtrip_hits")
_MARSHAL_MISSES = ("encode_misses", "decode_misses", "roundtrip_misses")


class LayerCounters:
    """Modeled and marshal counters over one traced round.

    Machines are tracked from construction, so counters of machines
    that outlive the round (the micro harness) count only the round's
    share.  Marshal statistics are accumulated across the
    ``clear_caches`` calls that zero them (fleet calibration does)."""

    def __init__(self, tracer: Tracer) -> None:
        from repro.core import convention
        from repro.machine import Machine

        self.stats = convention.cache_stats
        self.machines: List[Any] = []
        tracer.track(Machine, self.machines)
        clear = convention.clear_caches

        def clear_caches() -> None:
            self._absorb()
            clear()

        tracer.patch(convention, "clear_caches", clear_caches)
        self.begin()

    def begin(self) -> None:
        """Start counting (again) from here."""
        self.base = dict(self.stats)
        self.marshal: Counter = Counter()
        self.before = {id(m): self._machine(m) for m in self.machines}

    def _absorb(self) -> None:
        for key, value in self.stats.items():
            self.marshal[key] += value - self.base.get(key, 0)
        self.base = dict.fromkeys(self.stats, 0)

    @staticmethod
    def _machine(machine) -> tuple:
        from repro.hw.perf import WORLD_SWITCH_KINDS

        cycles = switches = hits = misses = 0
        for cpu in machine.cpus:
            cycles += cpu.perf.cycles
            switches += sum(cpu.perf.events.get(kind, 0)
                            for kind in WORLD_SWITCH_KINDS)
            caches = cpu.wt_caches
            if caches is not None:
                for cache in (caches.wt, caches.iwt):
                    hits += cache.hits
                    misses += cache.misses
        return cycles, switches, hits, misses

    def end(self) -> Dict[str, float]:
        self._absorb()
        totals = [0, 0, 0, 0]
        for machine in self.machines:
            now = self._machine(machine)
            then = self.before.get(id(machine), (0, 0, 0, 0))
            for i in range(4):
                totals[i] += now[i] - then[i]
        cycles, switches, hits, misses = totals
        marshal_hits = sum(self.marshal[k] for k in _MARSHAL_HITS)
        marshal_all = marshal_hits + sum(self.marshal[k]
                                         for k in _MARSHAL_MISSES)
        return {
            "hw.modeled_cycles": cycles,
            "hw.world_switches": switches,
            "hw.wt_cache.hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "core.marshal.hit_ratio": marshal_hits / marshal_all
            if marshal_all else 0.0,
        }


def layer_metrics(tracer: Tracer, counters: Dict[str, float],
                  round_: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric except ``bench.trace_overhead_pct``, which
    needs the untraced run."""
    entries = tracer.by_name()

    def calls(*names: str) -> int:
        return sum(entries.get(name, {}).get("calls", 0) for name in names)

    def seconds(name: str) -> float:
        return entries.get(name, {}).get("total_ns", 0) / 1e9

    selfs = tracer.layer_self_ns()
    round_ns = entries["round"]["total_ns"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0) / 1e9
        metrics[f"{layer}.self_pct"] = 100.0 * selfs.get(layer, 0) / round_ns
    extra = round_.get("layer", {})
    events = extra.get("fleet.sched_events", 0)
    run_self_ns = entries.get("FleetScheduler.run", {}).get("self_ns", 0)
    metrics.update({
        "hw.eptp_set.calls": calls("EPTPList.set"),
        "hw.eptp_get.calls": calls("EPTPList.get"),
        "hw.charge.calls": calls("PerfCounters.charge",
                                 "PerfCounters.charge_batch"),
        "hypervisor.create_vm.calls": calls("Hypervisor.create_vm"),
        "hypervisor.create_vm.s": seconds("Hypervisor.create_vm"),
        "hypervisor.world_churn.calls": calls("WorldService.create_world",
                                              "WorldService.destroy_world"),
        "fleet.build.s": seconds("scheduler.build_fleet"),
        "fleet.calibrate.s": seconds("scheduler.calibrate_costs"),
        "fleet.sched_events": events,
        "fleet.ns_per_event": run_self_ns / events if events else 0.0,
        "fleet.revocations": extra.get("fleet.revocations", 0),
        "core.marshal.calls": calls("convention.encode", "convention.decode"),
        "core.world_call.calls": calls("WorldCallRuntime.call"),
        "core.crossvm.calls": calls("CrossVMSyscallMechanism.call",
                                    "CrossVMSyscallMechanism.call_function"),
        "guestos.syscall.calls": calls("SyscallTable.invoke"),
        "guestos.spawn.calls": calls("Kernel.spawn"),
        "guestos.vfs_resolve.calls": calls("VFS.resolve"),
        "systems.redirect.calls": calls("CrossWorldSystem.redirect_syscall"),
        "xray.commit.calls": calls("XrayRecorder.commit"),
        "xray.traces_sampled": extra.get("xray.traces_sampled", 0),
        "telemetry.hook.calls": tracer.layer_calls("telemetry"),
        "audit.hook.calls": tracer.layer_calls("audit"),
        "audit.records": extra.get("audit.records", 0),
        "observatory.hook.calls": tracer.layer_calls("observatory"),
        "observatory.windows": extra.get("observatory.windows", 0),
    })
    metrics.update(counters)
    return metrics


def run_round(workload, units: Units) -> Dict[str, Any]:
    """One round plus its timings: ``wall_s`` (every unit, scaled),
    ``raw_wall_s`` (unscaled), ``work_s`` (the work units, scaled) and,
    where set-up is per round, ``setup_s``."""
    round_ = workload.round(units)
    round_["wall_s"] = units.seconds()
    round_["raw_wall_s"] = units.seconds(raw=True)
    round_["work_s"] = units.seconds(workload.work_units)
    if workload.setup_units:
        round_["setup_s"] = units.seconds(workload.setup_units)
    if units.probes:
        round_["probe_s"] = statistics.median(units.probes)
    return round_


def traced(args) -> Dict[str, Any]:
    """Install the wrappers, set up, run one traced round."""
    tracer = Tracer()
    tracer.install()
    counters = LayerCounters(tracer)
    workload = WORKLOADS[args.workload](args.seed, tracer)
    workload.setup()
    gc.collect()
    tracer.reset()
    counters.begin()
    round_ = run_round(workload, Units(probing=False))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as stream:
            json.dump(tracer.chrome_trace(), stream)
    return {"rounds": [round_],
            "layers": layer_metrics(tracer, counters.end(), round_)}


def measured(args) -> Dict[str, Any]:
    """Set up (timed from process start), then the timed rounds."""
    probe_start = time.monotonic_ns()
    before = probe()
    probe_ns = time.monotonic_ns() - probe_start
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_raw = (time.monotonic_ns() - args.start_ns - probe_ns) / 1e9
    out: Dict[str, Any] = {
        "setup_s": setup_raw * REFERENCE_S / ((before + probe()) / 2)}
    if args.mode == "run":
        rounds: List[Dict[str, Any]] = []
        minimum = args.rounds or workload.min_rounds
        began = time.monotonic()
        while len(rounds) < minimum or (
                args.rounds is None
                and time.monotonic() - began < args.seconds):
            # Collect the previous round's garbage outside the timing;
            # collection during a round stays in it, as users pay it.
            gc.collect()
            rounds.append(run_round(workload, Units()))
        out["rounds"] = rounds
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--start-ns", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    out = traced(args) if args.mode == "trace" else measured(args)
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
