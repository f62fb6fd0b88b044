"""Compare two sets of benchmark runs.

    python perf/compare.py A.json B.json

``A`` (the parent) and ``B`` (the change) are results files written by
``run.py`` (``--out FILE`` collects several seeds into one file) or
directories of them.  For each (workload, end-to-end metric) it prints
both sides' median and quartiles and a verdict under the metric's bound
(``BENCHMARK.json``, or ``run.EXTRA_METRICS`` for metrics of one
workload):

``improved``    B beats A's median by more than A's quartile spread
                and wins at least 9 in 10 runs paired by seed (without
                pairs: every B run beats every A run);
``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  either side's quartile spread is wider than the bound,
                unless every B run is better (or worse) than every A run;
``unchanged``   otherwise.

Modeled metrics (bound 0) are compared run by run: ``unchanged`` when
every pair is identical, else ``changed``.  Each side's failed-operation
share is printed per workload.  Exits 1 when anything regressed or
changed, or B failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from run import EXTRA_METRICS, load_benchmark

#: A change must win this share of paired runs to count as a gain.
PAIR_WIN_SHARE = 0.9


def metric_specs(benchmark: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """name -> {unit, better, bound} for every comparable metric."""
    specs = {name: {"unit": unit, "better": better, "bound": bound}
             for name, (unit, better, bound) in EXTRA_METRICS.items()}
    for metric in benchmark["end_to_end"]:
        specs[metric["name"]] = metric
    return specs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(path: Path) -> List[Dict[str, Any]]:
    """The untraced runs in a results file or a directory of them."""
    files = sorted(path.glob("results-*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        with open(file, encoding="utf-8") as stream:
            runs += [run for run in json.load(stream)["runs"]
                     if not run["trace"]]
    return runs


def verdict(a: List[float], b: List[float], better: str, bound: float,
            pairs: Optional[List[Tuple[float, float]]] = None
            ) -> Tuple[str, Optional[float]]:
    """``(verdict, share of pairs B wins)`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = None
    if pairs:
        won = sum(1 for x, y in pairs if sign * (y - x) < 0)
        wins = won / len(pairs)
    if bound == 0:
        if pairs:
            same = all(x == y for x, y in pairs)
        else:
            same = len(set(a) | set(b)) == 1
        return ("unchanged" if same else "changed"), wins
    qa, qb = quartiles(a), quartiles(b)
    scale = abs(qa[1])
    worse = sign * (qb[1] - qa[1]) / scale if scale else 0.0
    spread = max((qa[2] - qa[0]) / scale if scale else 0.0,
                 (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound:
        if all_better:
            return "improved", wins
        if all_worse:
            return "regressed", wins
        return "unresolved", wins
    if worse > bound:
        return "regressed", wins
    gain = -worse * scale
    if gain > qa[2] - qa[0] and (all_better if wins is None
                                 else wins >= PAIR_WIN_SHARE):
        return "improved", wins
    return "unchanged", wins


def compare(a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]],
            specs: Dict[str, Dict[str, Any]]) -> Tuple[List[Dict[str, Any]],
                                                       Dict[str, Any]]:
    """Rows of ``{workload, metric, a, b, verdict, wins}`` and each
    workload's failed-operation shares."""
    rows = []
    failures: Dict[str, Any] = {}
    workloads = sorted({run["workload"] for run in a_runs}
                       & {run["workload"] for run in b_runs})
    for workload in workloads:
        a = [run for run in a_runs if run["workload"] == workload]
        b = [run for run in b_runs if run["workload"] == workload]
        failures[workload] = tuple(
            sum(run["failed"] for run in side)
            / max(1, sum(run["attempted"] for run in side))
            for side in (a, b))
        b_by_seed = {run["seed"]: run for run in b}
        for metric, spec in specs.items():
            a_values = [run["metrics"][metric]["value"] for run in a
                        if metric in run["metrics"]]
            b_values = [run["metrics"][metric]["value"] for run in b
                        if metric in run["metrics"]]
            if not a_values or not b_values:
                continue
            pairs = [(run["metrics"][metric]["value"],
                      b_by_seed[run["seed"]]["metrics"][metric]["value"])
                     for run in a if metric in run["metrics"]
                     and run["seed"] in b_by_seed
                     and metric in b_by_seed[run["seed"]]["metrics"]]
            result, wins = verdict(a_values, b_values, spec["better"],
                                   spec["bound"], pairs)
            rows.append({"workload": workload, "metric": metric,
                         "unit": spec["unit"], "a": quartiles(a_values),
                         "b": quartiles(b_values), "n": (len(a_values),
                                                         len(b_values)),
                         "verdict": result, "wins": wins})
    return rows, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", type=Path, help="parent runs")
    parser.add_argument("b", type=Path, help="changed runs")
    args = parser.parse_args(argv)
    rows, failures = compare(load_runs(args.a), load_runs(args.b),
                             metric_specs(load_benchmark()))
    if not rows:
        print("compare: no workload measured on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':13s} {'metric':26s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s}  verdict")
    for row in rows:
        (a1, a2, a3), (b1, b2, b3) = row["a"], row["b"]
        change = f"{100 * (b2 - a2) / abs(a2):+.1f}%" if a2 else "-"
        wins = "" if row["wins"] is None else f"  wins {row['wins']:.0%}"
        print(f"{row['workload']:13s} {row['metric']:26s} "
              f"{a2:>12.6g} [{a1:.4g}, {a3:.4g}] "
              f"{b2:>12.6g} [{b1:.4g}, {b3:.4g}] {change:>8s}  "
              f"{row['verdict']} (n={row['n'][0]}/{row['n'][1]}){wins}")
    for workload, (a_share, b_share) in failures.items():
        print(f"{workload:13s} failed operations: A {a_share:.2%}  "
              f"B {b_share:.2%}")
    bad = any(row["verdict"] in ("regressed", "changed") for row in rows)
    return 1 if bad or any(b for _, b in failures.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
