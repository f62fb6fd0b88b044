"""Layered host-time benchmark of the CrossOver simulator.

    PYTHONPATH=src python perf/run.py --seed 0       # all five workloads
    python3 perf/run.py --workload micro --seed 3 --seconds 10 --trace 0
    python perf/run.py --seed 0 --trace              # per-layer host time

Each workload runs in a fresh single-threaded subprocess (``child.py``)
whose environment has every ``REPRO_*`` variable removed, so the policy
layers stay at their defaults.  The command prints every metric with
its unit, checks every modeled output against ``golden.json`` (where a
seed has no recorded digest, against the run's first round), writes
``perf/out/results-seed<N>.json`` and exits 1 when any operation
failed, 2 when it could not measure at all.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}`` with
the ``BENCHMARK.json`` end-to-end metrics, or its per-layer metrics
with ``--trace``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import golden
from workloads import WORKLOADS

PERF = Path(__file__).resolve().parent
REPO = PERF.parent
SRC = REPO / "src"
BENCHMARK = REPO / "BENCHMARK.json"
OUT = PERF / "out"

#: Set-up samples per run where set-up is per process: the measuring
#: child plus ``SETUP_SAMPLES - 1`` children that only set up.
SETUP_SAMPLES = 5

#: Untraced rounds that give a traced run its overhead baseline.
REFERENCE_ROUNDS = 3

#: Host seconds one workload may take, so a run ends within 180 s.
WORKLOAD_BUDGET_S = 170.0

#: Metrics that apply to one workload only, recorded and compared next
#: to the BENCHMARK.json ones: name -> (unit, better, bound).  A bound
#: of 0 means the value is modeled and must not move at all.
EXTRA_METRICS: Dict[str, Tuple[str, str, float]] = {
    "world_call_us_p50": ("us", "lower", 0.20),
    "world_call_us_p99": ("us", "lower", 0.20),
    "crossvm_us_p50": ("us", "lower", 0.20),
    "crossvm_us_p99": ("us", "lower", 0.20),
    "modeled_world_call_cycles": ("cycles", "lower", 0.0),
    "modeled_crossvm_cycles": ("cycles", "lower", 0.0),
    "modeled_baseline_rps": ("req/s", "higher", 0.0),
    "modeled_world_call_p99_us": ("us", "lower", 0.0),
    "modeled_paper_err_pp": ("pp", "lower", 0.0),
}


class ChildFailed(RuntimeError):
    """A workload process crashed, timed out or printed no result."""


def load_benchmark(path: Path = BENCHMARK) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def child_env() -> Dict[str, str]:
    """The parent's environment without ``REPRO_*``, with ``src`` on
    the path and a fixed hash seed (host time must not depend on the
    process's string-hash layout)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, mode: str, *, seconds: float = 0.0,
              rounds: Optional[int] = None, trace_out: Optional[Path] = None,
              timeout: float = WORKLOAD_BUDGET_S) -> Dict[str, Any]:
    """Run ``child.py`` once and return its JSON result."""
    command = [sys.executable, str(PERF / "child.py"), workload,
               "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    if rounds is not None:
        command += ["--rounds", str(rounds)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    start_ns = time.monotonic_ns()
    with subprocess.Popen(command + ["--start-ns", str(start_ns)],
                          stdout=subprocess.PIPE, env=child_env(),
                          cwd=str(REPO)) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"{workload} ({mode}) gave no result within "
                              f"{timeout:.0f} s") from None
        except BaseException:
            proc.kill()         # leave no child behind on interrupt
            raise
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} ({mode}) exited with code "
                          f"{proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as err:
        raise ChildFailed(f"{workload} ({mode}) printed no result: "
                          f"{err}") from None


def check(rounds: List[Dict[str, Any]],
          expected: Dict[str, str]) -> Tuple[int, int, List[str]]:
    """Count operations and failures.  An operation fails when a check
    in the round failed it, it raised, or one of its output digests
    differs from the golden one; keys without a golden digest must
    repeat the first round's."""
    reference = dict(expected)
    attempted = failed = 0
    problems: List[str] = []
    for round_ in rounds:
        for op in round_["ops"]:
            bad = op["failed"]
            if op["error"]:
                problems.append(f"{op['id']}: {op['error']}")
            for key, value in sorted(op["digests"].items()):
                want = reference.setdefault(key, value)
                if value != want:
                    bad = op["n"]
                    problems.append(f"{key}: digest {value[:12]} differs "
                                    f"from {want[:12]}")
            attempted += op["n"]
            failed += min(op["n"], bad)
    return attempted, failed, sorted(set(problems))


def measure(workload: str, seed: int, seconds: float,
            rounds: Optional[int], deadline: float) -> Dict[str, Any]:
    """The untraced run: set-up samples, then timed rounds."""
    cls = WORKLOADS[workload]
    setups: List[float] = []
    if not cls.setup_units:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child(workload, seed, "setup",
                                    timeout=deadline - time.monotonic()
                                    )["setup_s"])
    child = run_child(workload, seed, "run", seconds=seconds, rounds=rounds,
                      timeout=deadline - time.monotonic())
    done = child["rounds"]
    if cls.setup_units:
        setups = [round_["setup_s"] for round_ in done]
    else:
        setups.append(child["setup_s"])
    return {"metrics": summarize(done, setups, child["peak_rss_mb"]),
            "rounds": done,
            "samples": {"setup_s": setups,
                        "wall_s": [round_["wall_s"] for round_ in done],
                        "raw_wall_s": [round_["raw_wall_s"]
                                       for round_ in done],
                        "probe_s": [round_["probe_s"] for round_ in done]}}


def summarize(rounds: List[Dict[str, Any]], setups: List[float],
              peak_rss_mb: float) -> Dict[str, float]:
    """End-to-end and workload metrics of one run: medians over set-up
    samples and over rounds (a percentile is taken per round, then its
    median over rounds)."""
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(round_["wall_s"] for round_ in rounds),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": statistics.median(
            round_["work_ops"] / round_["work_s"] for round_ in rounds),
    }
    for name in sorted({key for round_ in rounds for key in round_["extra"]}):
        metrics[name] = statistics.median(
            round_["extra"][name] for round_ in rounds
            if name in round_["extra"])
    return metrics


def trace(workload: str, seed: int, deadline: float) -> Dict[str, Any]:
    """The traced run: an untraced reference, then one traced round."""
    reference = run_child(workload, seed, "run", rounds=REFERENCE_ROUNDS,
                          timeout=deadline - time.monotonic())
    OUT.mkdir(parents=True, exist_ok=True)
    child = run_child(workload, seed, "trace",
                      trace_out=OUT / f"{workload}.trace.json",
                      timeout=deadline - time.monotonic())
    untraced = [round_["raw_wall_s"] for round_ in reference["rounds"]]
    traced = child["rounds"][0]["raw_wall_s"]
    metrics = dict(child["layers"])
    metrics["bench.trace_overhead_pct"] = \
        100.0 * (traced / statistics.median(untraced) - 1.0)
    return {"metrics": metrics,
            "rounds": reference["rounds"] + child["rounds"],
            "samples": {"raw_wall_s": untraced, "traced_raw_wall_s": traced}}


def host_facts() -> Dict[str, Any]:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def write_results(path: Path, runs: List[Dict[str, Any]]) -> None:
    """Merge ``runs`` into the results file at ``path``: a run replaces
    an earlier one of the same workload, seed and mode."""
    data: Dict[str, Any] = {"format": "perf-results/1", "runs": []}
    if path.exists():
        with open(path, encoding="utf-8") as stream:
            data = json.load(stream)
    keys = {(run["workload"], run["seed"], run["trace"]) for run in runs}
    data["runs"] = [run for run in data["runs"]
                    if (run["workload"], run["seed"], run["trace"])
                    not in keys] + runs
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(data, stream, indent=1, sort_keys=True)
        stream.write("\n")


def report(run: Dict[str, Any], units: Dict[str, str]) -> None:
    """Human-readable lines for one workload run."""
    mode = "traced" if run["trace"] else f"{run['rounds']} rounds"
    print(f"{run['workload']}  seed {run['seed']}  {mode}  "
          f"ops {run['attempted'] - run['failed']}/{run['attempted']} ok  "
          f"load {run['load']['before']:.2f}->{run['load']['after']:.2f}")
    for name, metric in run["metrics"].items():
        value = metric["value"]
        text = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:34s} {text} {units.get(name, '')}")
    for problem in run["problems"][:10]:
        print(f"  FAILED {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="measure at least this long per workload")
    parser.add_argument("--rounds", type=int, default=None,
                        help="exactly this many timed rounds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--out", type=Path, default=None,
                        help="results file (default "
                             "perf/out/results-seed<N>.json)")
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if not (SRC / "repro").is_dir():
        print(f"perf: no simulator source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    specs = {metric["name"]: metric for metric in benchmark[kind]}
    units = {name: spec["unit"] for name, spec in specs.items()}
    units.update({name: spec[0] for name, spec in EXTRA_METRICS.items()})
    digests = golden.load()
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    for name in names:
        load_before = os.getloadavg()[0]
        deadline = time.monotonic() + WORKLOAD_BUDGET_S
        try:
            result = (trace(name, args.seed, deadline) if args.trace else
                      measure(name, args.seed, args.seconds, args.rounds,
                              deadline))
        except ChildFailed as err:
            print(f"perf: {err}", file=sys.stderr)
            return 2
        missing = set(specs) - set(result["metrics"])
        if missing:
            print(f"perf: {name} did not measure {sorted(missing)}",
                  file=sys.stderr)
            return 2
        attempted, failed, problems = check(
            result["rounds"], golden.expected(digests, name, args.seed))
        run = {
            "workload": name, "seed": args.seed, "trace": bool(args.trace),
            "rounds": len(result["rounds"]),
            "attempted": attempted, "failed": failed, "problems": problems,
            "load": {"before": load_before, "after": os.getloadavg()[0]},
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in result["metrics"].items()},
            "samples": result["samples"],
        }
        report(run, units)
        runs.append(run)

    write_results(args.out or OUT / f"results-seed{args.seed}.json",
                  [dict(run, host=host_facts()) for run in runs])
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run['workload']}."
        for name in specs:
            metrics[prefix + name] = run["metrics"][name]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
