"""Metric definitions, aggregation and verdicts, without running a
workload."""

import re

import pytest

import run
from child import layer_metrics
from compare import verdict
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, percentile

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def spec():
    return run.load_benchmark()


def test_benchmark_json_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"]
             + spec["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_per_layer_metrics_match_benchmark(spec):
    t = Tracer()
    with t.span("round"):
        pass
    counters = {"hw.modeled_cycles": 0, "hw.world_switches": 0,
                "hw.wt_cache.hit_ratio": 0.0, "core.marshal.hit_ratio": 0.0}
    produced = set(layer_metrics(t, counters, {})) | {
        "bench.trace_overhead_pct"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert len(produced) == 54
    assert {f"{layer}.self_pct" for layer in LAYERS} <= produced


def test_summary_takes_median_of_per_round_percentiles(spec):
    rounds = [{"wall_s": wall, "work_s": 1.0, "work_ops": ops,
               "extra": {"world_call_us_p99": p99}}
              for wall, ops, p99 in ((3.0, 10, 40.0), (1.0, 30, 20.0),
                                     (2.0, 20, 90.0))]
    metrics = run.summarize(rounds, [0.5, 0.7, 0.6], 12.5)
    assert metrics == {"setup_s": 0.6, "wall_s": 2.0, "peak_rss_mb": 12.5,
                       "ops_per_s": 20.0, "world_call_us_p99": 40.0}
    assert {m["name"] for m in spec["end_to_end"]} <= set(metrics)


def test_nearest_rank_percentile():
    samples = list(range(1, 10_001))
    assert percentile(samples, 50) == 5000
    assert percentile(samples, 99) == 9900      # 100 samples above it
    assert percentile([7], 99) == 7


def test_check_counts_failures_per_operation():
    ops = [{"id": "a", "n": 10, "digests": {"a": "x"}, "failed": 0,
            "error": None},
           {"id": "b", "n": 5, "digests": {"b": "bad"}, "failed": 0,
            "error": None},
           {"id": "c", "n": 4, "digests": {"c": "first"}, "failed": 1,
            "error": None}]
    again = [dict(ops[2], digests={"c": "second"}, failed=0)]
    attempted, failed, problems = run.check(
        [{"ops": ops}, {"ops": again}], {"a": "x", "b": "good"})
    # b mismatches golden (5), c failed a check (1), then c's second
    # round differs from its first (4).
    assert (attempted, failed) == (23, 10)
    assert len(problems) == 2


@pytest.mark.parametrize("a, b, pairs, expected", [
    ([10, 10.1, 9.9, 10, 10.05], [10, 10.02, 9.95, 10.1, 10], True,
     "unchanged"),
    ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], True,
     "regressed"),
    ([10, 10.1, 9.9, 10, 10.05], [9, 9.1, 8.9, 9, 9.05], True, "improved"),
    ([10, 14, 6, 10, 12], [10, 9, 11, 10, 10], False, "unresolved"),
    ([596] * 3, [596] * 3, True, "unchanged"),
])
def test_verdicts(a, b, pairs, expected):
    bound = 0 if a[0] == 596 else 0.1
    paired = list(zip(a, b)) if pairs else None
    assert verdict(a, b, "lower", bound, paired)[0] == expected


def test_modeled_change_is_reported():
    assert verdict([596, 596], [597, 596], "lower", 0,
                   [(596, 597), (596, 596)])[0] == "changed"
