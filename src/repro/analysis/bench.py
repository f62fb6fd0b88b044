"""Wall-clock benchmarking of the experiment sweeps (BENCH artifacts).

Measures the host runtime of the Table-4 + Table-5 sweep in three
configurations and checks they agree on every simulated number:

* ``before`` — fast path disabled, serial: the seed's step-by-step
  charging/marshaling/trace-recording code path;
* ``after_serial`` — fast path enabled, serial;
* ``after_parallel`` — fast path enabled, cells fanned over worker
  processes (equal to serial on single-CPU hosts).

Optionally (``seed_src=``), the sweep is also timed against an actual
seed checkout's source tree in a subprocess, giving a true
before-this-PR baseline rather than an in-process approximation.

The artifact is JSON::

    {
      "host": {"cpus": 1, "python": "3.11.7"},
      "tables": ["table4", "table5"],
      "runs": {"before": {...}, "after_serial": {...}, ...},
      "equivalent": true,
      "speedup_serial": 2.6,
      "speedup_best": 2.6,
      "cache_stats": {...}
    }

Each run entry carries ``wall_seconds`` total plus per-table timings.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Tuple

from repro.analysis import experiments, parallel
from repro.core import convention, fastpath

DEFAULT_TABLES: Tuple[str, ...] = ("table4", "table5")


def _gc_freeze() -> None:
    """Move everything alive (imports, caches) to the GC's permanent
    generation so gen-2 collections during the timed region scan only
    workload allocations.  Without this, two source trees doing
    identical work time differently just because one imports more
    modules — each full collection walks the larger startup heap."""
    gc.collect()
    gc.freeze()


def _run_serial(tables: Tuple[str, ...]) -> Dict[str, Any]:
    per_table: Dict[str, float] = {}
    results: Dict[str, Any] = {}
    t_all = time.perf_counter()
    for table in tables:
        runner = getattr(experiments, f"run_{table}")
        t0 = time.perf_counter()
        results[table] = runner()
        per_table[table] = round(time.perf_counter() - t0, 4)
    return {
        "results": results,
        "per_table_seconds": per_table,
        "wall_seconds": round(time.perf_counter() - t_all, 4),
    }


def _run_parallel(tables: Tuple[str, ...],
                  workers: Optional[int]) -> Dict[str, Any]:
    sweep = parallel.run_sweep(tables, workers=workers)
    return {
        "results": sweep["results"],
        "cells": sweep["cells"],
        "wall_seconds": round(sweep["wall_seconds"], 4),
        "workers": workers if workers is not None
        else parallel.default_workers(),
    }


def _run_seed_baseline(seed_src: str, tables: Tuple[str, ...]
                       ) -> Optional[Dict[str, Any]]:
    """Time the same sweep against another source tree (the seed
    checkout), in a subprocess so the two trees cannot mix."""
    script = (
        "import gc, json, sys, time\n"
        "from repro.analysis import experiments\n"
        "gc.collect(); gc.freeze()\n"
        "tables = sys.argv[1].split(',')\n"
        "per = {}\n"
        "t_all = time.perf_counter()\n"
        "for t in tables:\n"
        "    t0 = time.perf_counter()\n"
        "    getattr(experiments, 'run_' + t)()\n"
        "    per[t] = round(time.perf_counter() - t0, 4)\n"
        "print(json.dumps({'per_table_seconds': per,\n"
        "                  'wall_seconds': round(time.perf_counter() "
        "- t_all, 4)}))\n")
    env = dict(os.environ, PYTHONPATH=seed_src)
    try:
        out = subprocess.run(
            [sys.executable, "-c", script, ",".join(tables)],
            env=env, capture_output=True, text=True, timeout=3600,
            check=True)
    except (subprocess.SubprocessError, OSError):
        return None
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def _strip_results(run: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in run.items() if k != "results"}


def run_bench(tables: Tuple[str, ...] = DEFAULT_TABLES,
              workers: Optional[int] = None,
              seed_src: Optional[str] = None,
              output: Optional[str] = None) -> Dict[str, Any]:
    """Run the before/after sweep benchmark; optionally write JSON."""
    convention.clear_caches()
    with fastpath.scoped(False):
        before = _run_serial(tables)
    convention.clear_caches()
    with fastpath.scoped(True):
        after_serial = _run_serial(tables)
    with fastpath.scoped(True):
        after_parallel = _run_parallel(tables, workers)

    equivalent = (before["results"] == after_serial["results"]
                  == after_parallel["results"])

    artifact: Dict[str, Any] = {
        "host": {
            "cpus": parallel.default_workers(),
            "python": platform.python_version(),
        },
        "tables": list(tables),
        "runs": {
            "before": _strip_results(before),
            "after_serial": _strip_results(after_serial),
            "after_parallel": _strip_results(after_parallel),
        },
        "equivalent": equivalent,
        "speedup_serial": round(
            before["wall_seconds"] / after_serial["wall_seconds"], 3),
        "speedup_best": round(
            before["wall_seconds"]
            / min(after_serial["wall_seconds"],
                  after_parallel["wall_seconds"]), 3),
        "cache_stats": dict(convention.cache_stats),
    }

    if seed_src is not None:
        seed = _run_seed_baseline(seed_src, tables)
        if seed is not None:
            artifact["runs"]["seed"] = seed
            artifact["speedup_vs_seed"] = round(
                seed["wall_seconds"]
                / min(after_serial["wall_seconds"],
                      after_parallel["wall_seconds"]), 3)

    if output is not None:
        with open(output, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return artifact


def _best_of(repeats: int, run) -> Dict[str, Any]:
    """Repeat a timed sweep, keeping every sample and the fastest run's
    results (all runs are checked equal by the caller)."""
    samples = []
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, repeats)):
        convention.clear_caches()
        this = run()
        samples.append(this["wall_seconds"])
        if best is None or this["wall_seconds"] < best["wall_seconds"]:
            best = this
    assert best is not None
    return dict(best, samples=samples)


def run_telemetry_bench(tables: Tuple[str, ...] = DEFAULT_TABLES,
                        baseline_src: Optional[str] = None,
                        repeats: int = 3,
                        output: Optional[str] = None) -> Dict[str, Any]:
    """Measure the telemetry subsystem's wall-clock cost (BENCH_PR3).

    Times the fast-path serial sweep in three configurations, best of
    ``repeats`` each:

    * ``telemetry_disabled`` — no session installed: the dormant hooks
      are the only delta against a pre-telemetry tree;
    * ``telemetry_enabled`` — the always-on lightweight profile
      (:meth:`TelemetrySession.lightweight`: counters on, spans sampled
      into a bounded ring, no wall-clock reads), which is what
      ``overhead_enabled_percent`` reports;
    * ``telemetry_full`` — the full span-tree profile the exporters and
      profiler consume (``overhead_full_percent``).

    With ``baseline_src`` (a pre-telemetry checkout's ``src/``, e.g.
    the PR-1 tree) the dormant-hook overhead is measured
    subprocess-vs-subprocess: the *current* tree with no session and
    the baseline tree run the same sweep script in fresh interpreters,
    interleaved so host drift hits both sides alike.  (A fresh
    interpreter is systematically faster than the long-lived bench
    process, so comparing an in-process run against a subprocess run
    inflates the dormant number by several percent; each reported
    ratio compares like with like.)  The full run's *bounded* metrics
    digest (not the whole snapshot) is embedded in the artifact.

    All sides run after :func:`_gc_freeze` so the comparison measures
    the hooks, not the size of each tree's startup heap in the GC's
    gen-2 scans (the telemetry package alone otherwise shows up as a
    spurious ~10% "overhead" of pure collector time).
    """
    from repro import telemetry
    from repro.telemetry import export as telemetry_export

    _gc_freeze()
    with fastpath.scoped(True):
        disabled = _best_of(repeats, lambda: _run_serial(tables))

    def _lightweight_run() -> Dict[str, Any]:
        session = telemetry.install(
            telemetry.TelemetrySession.lightweight("bench-lightweight"))
        try:
            return _run_serial(tables)
        finally:
            telemetry.uninstall()

    with fastpath.scoped(True):
        lightweight = _best_of(repeats, _lightweight_run)

    session_holder: Dict[str, Any] = {}

    def _full_run() -> Dict[str, Any]:
        with telemetry.scoped("bench-full",
                              telemetry.TelemetryConfig()) as session:
            result = _run_serial(tables)
        session_holder["digest"] = telemetry_export.metrics_digest(session)
        return result

    with fastpath.scoped(True):
        full = _best_of(repeats, _full_run)

    artifact: Dict[str, Any] = {
        "host": {
            "cpus": parallel.default_workers(),
            "python": platform.python_version(),
        },
        "tables": list(tables),
        "repeats": repeats,
        "gc": "startup heap frozen out of gen-2 scans on both sides",
        "runs": {
            "telemetry_disabled": _strip_results(disabled),
            "telemetry_enabled": _strip_results(lightweight),
            "telemetry_full": _strip_results(full),
        },
        "equivalent": (disabled["results"] == lightweight["results"]
                       == full["results"]),
        "overhead_enabled_percent": round(
            (lightweight["wall_seconds"] / disabled["wall_seconds"] - 1)
            * 100, 2),
        "overhead_full_percent": round(
            (full["wall_seconds"] / disabled["wall_seconds"] - 1)
            * 100, 2),
        "telemetry_digest": session_holder["digest"],
    }

    if baseline_src is not None:
        import repro

        current_src = os.path.dirname(os.path.dirname(repro.__file__))
        sides: Dict[str, Dict[str, Any]] = {}
        samples: Dict[str, list] = {"pre_telemetry_baseline": [],
                                    "dormant_hooks": []}
        for _ in range(max(1, repeats)):
            # Interleave the two trees so slow host phases hit both.
            for name, src in (("pre_telemetry_baseline", baseline_src),
                              ("dormant_hooks", current_src)):
                this = _run_seed_baseline(src, tables)
                if this is None:
                    continue
                samples[name].append(this["wall_seconds"])
                best = sides.get(name)
                if best is None \
                        or this["wall_seconds"] < best["wall_seconds"]:
                    sides[name] = this
        if len(sides) == 2:
            for name, best in sides.items():
                artifact["runs"][name] = dict(best, samples=samples[name])
            artifact["overhead_disabled_percent"] = round(
                (sides["dormant_hooks"]["wall_seconds"]
                 / sides["pre_telemetry_baseline"]["wall_seconds"] - 1)
                * 100, 2)

    if output is not None:
        with open(output, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return artifact


def run_switchless_bench(seed: int = 0, iterations: int = 5,
                         workers: Optional[int] = None,
                         repeats: int = 3,
                         output: Optional[str] = None) -> Dict[str, Any]:
    """Measure the switchless call engine (BENCH_PR7).

    Times the three-way mechanism sweep (baseline / world_call /
    force-switchless Table 4–6 cells) serially and through the worker
    pool, best of ``repeats`` each, and checks both agree on every
    simulated number.  The modeled-cycle evidence rides along under
    ``switchless``: the campaign's adaptive-policy proof (adaptive must
    beat static world_call on the bursty workload and must not flip on
    the sparse one) and the 1/2/4-engine-worker determinism sweep.
    ``equivalent`` folds those campaign claims in, so the artifact
    fails loudly when the policy stops paying for itself.
    """
    from repro.switchless import campaign as _campaign

    _gc_freeze()
    tables = ("mechanisms",)
    with fastpath.scoped(True):
        serial = _best_of(repeats, lambda: _run_serial(tables))
        pooled = _best_of(repeats, lambda: _run_parallel(tables, workers))

    t0 = time.perf_counter()
    campaign = _campaign.run_campaign(seed=seed, iterations=iterations)
    campaign_run = {"wall_seconds": round(time.perf_counter() - t0, 4)}

    adaptive = campaign["adaptive"]
    bursty = adaptive["bursty"]["mechanisms"]
    summary = campaign["summary"]
    equivalent = (serial["results"] == pooled["results"]
                  and all(summary.values()))

    artifact: Dict[str, Any] = {
        "host": {
            "cpus": parallel.default_workers(),
            "python": platform.python_version(),
        },
        "tables": list(tables),
        "repeats": repeats,
        "gc": "startup heap frozen out of gen-2 scans on both sides",
        "runs": {
            "three_way_serial": _strip_results(serial),
            "three_way_parallel": _strip_results(pooled),
            "campaign": campaign_run,
        },
        "equivalent": equivalent,
        # Static world_call cycles over adaptive cycles on the hot
        # workload: > 1.0 means the policy's flips paid off.
        "switchless_adaptive_speedup": round(
            bursty["world_call"]["cycles_calls"]
            / bursty["adaptive"]["cycles_calls"], 3),
        "switchless": {
            "seed": campaign["seed"],
            "three_way": campaign["three_way"],
            "adaptive": {
                workload: {
                    "mean_call_cycles": {
                        mechanism: cell["mean_call_cycles"]
                        for mechanism, cell in
                        entry["mechanisms"].items()},
                    "flips": entry["adaptive_flips"],
                    "beats_world_call":
                        entry["adaptive_beats_world_call"],
                }
                for workload, entry in sorted(adaptive.items())},
            "worker_sweep": campaign["worker_sweep"],
            "tuning": campaign["tuning"],
            "summary": summary,
        },
    }

    if output is not None:
        with open(output, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return artifact


def dump_counters(tables: Tuple[str, ...] = DEFAULT_TABLES,
                  output: Optional[str] = None) -> str:
    """Dump every simulated number of a serial sweep as canonical JSON.

    The tier is whatever the environment selects.  CI runs this once
    under ``REPRO_FASTPATH=0`` (the stepwise oracle) and once at the
    default (the fused fast path) and asserts the two files are
    byte-identical (``cmp``): the fast path's equivalence contract
    checked end-to-end, outside any Python test harness.
    """
    convention.clear_caches()
    run = _run_serial(tables)
    text = json.dumps(run["results"], indent=2, sort_keys=True) + "\n"
    if output is not None:
        with open(output, "w") as fh:
            fh.write(text)
    return text


def main(argv=None) -> int:
    """``python -m repro.analysis.bench``: the bench harnesses.

    ``--mode telemetry`` (default) is the PR3 telemetry-overhead bench;
    ``--mode switchless`` produces the PR7 call-engine artifact;
    ``--mode counters`` dumps the sweep's simulated numbers for the CI
    stepwise-vs-fused ``cmp``.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="Wall-clock bench harnesses (BENCH artifacts)")
    parser.add_argument("--mode", default="telemetry",
                        choices=("telemetry", "switchless", "counters"))
    parser.add_argument("--output", default=None)
    parser.add_argument("--baseline-src", default=None, metavar="DIR",
                        help="a pre-telemetry checkout's src/ to time "
                        "as the true baseline (subprocess; telemetry "
                        "mode)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0,
                        help="switchless mode: campaign workload seed")
    parser.add_argument("--iterations", type=int, default=5,
                        help="switchless mode: campaign lmbench "
                        "iterations per cell")
    parser.add_argument("--tables", default=",".join(DEFAULT_TABLES))
    args = parser.parse_args(argv)
    tables = tuple(args.tables.split(","))

    if args.mode == "counters":
        tier = "fused" if fastpath.enabled() else "stepwise"
        output = args.output or f"counters-{tier}.json"
        dump_counters(tables=tables, output=output)
        print(f"counters ({tier}) -> {output}")
        return 0

    if args.mode == "switchless":
        artifact = run_switchless_bench(
            seed=args.seed, iterations=args.iterations,
            repeats=args.repeats,
            output=args.output or "BENCH_PR7.json")
        runs = artifact["runs"]
        print(f"three-way serial: "
              f"{runs['three_way_serial']['wall_seconds']}s  "
              f"parallel: {runs['three_way_parallel']['wall_seconds']}s  "
              f"campaign: {runs['campaign']['wall_seconds']}s")
        sl = artifact["switchless"]
        for workload, entry in sl["adaptive"].items():
            cycles = entry["mean_call_cycles"]
            print(f"{workload}: world_call {cycles['world_call']}cy  "
                  f"switchless {cycles['switchless']}cy  "
                  f"adaptive {cycles['adaptive']}cy "
                  f"({entry['flips']} flips)")
        print(f"adaptive speedup vs world_call: "
              f"x{artifact['switchless_adaptive_speedup']}  "
              f"worker sweep identical: "
              f"{sl['summary']['worker_sweep_deterministic']}")
        print(f"equivalent: {artifact['equivalent']}  -> "
              f"{args.output or 'BENCH_PR7.json'}")
        return 0 if artifact["equivalent"] else 1

    artifact = run_telemetry_bench(
        tables=tables,
        baseline_src=args.baseline_src,
        repeats=args.repeats, output=args.output or "BENCH_PR3.json")
    runs = artifact["runs"]
    print(f"telemetry off: {runs['telemetry_disabled']['wall_seconds']}s  "
          f"lightweight: {runs['telemetry_enabled']['wall_seconds']}s "
          f"(+{artifact['overhead_enabled_percent']}%)  "
          f"full: {runs['telemetry_full']['wall_seconds']}s "
          f"(+{artifact['overhead_full_percent']}%)")
    if "pre_telemetry_baseline" in runs:
        print(f"pre-telemetry baseline: "
              f"{runs['pre_telemetry_baseline']['wall_seconds']}s  "
              f"dormant-hook overhead: "
              f"{artifact['overhead_disabled_percent']}%")
    print(f"equivalent: {artifact['equivalent']}  -> "
          f"{args.output or 'BENCH_PR3.json'}")
    return 0 if artifact["equivalent"] else 1


if __name__ == "__main__":
    sys.exit(main())
