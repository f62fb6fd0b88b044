"""Unit tests for the metrics registry."""

import json

import pytest

from repro.telemetry.registry import (DEFAULT_BUCKETS, MetricsRegistry,
                                      label_key, series_name)


class TestSeries:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.counter("calls", system="Proxos").inc()
        reg.counter("calls", system="Proxos").inc(2)
        reg.counter("calls", system="Tahoma").inc()
        assert reg.counter("calls", system="Proxos").value == 3
        assert reg.counter("calls", system="Tahoma").value == 1
        assert len(reg.family("calls")) == 2

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(4)
        reg.gauge("depth").set(2)
        assert reg.gauge("depth").value == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_label_key_is_order_insensitive(self):
        assert (label_key({"a": 1, "b": "z"})
                == label_key({"b": "z", "a": 1}))
        assert series_name("m", label_key({"b": 2, "a": 1})) == "m{a=1,b=2}"


class TestHistogram:
    def test_percentiles_interpolate_within_bucket(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(10, 100, 1000))
        for v in (5, 5, 50, 50, 50, 500):
            hist.observe(v)
        assert hist.count == 6
        # rank 3 of 6 lands in the (10, 100] bucket holding 3
        # observations: 10 + 1/3 * 90 = 40 (linear interpolation, not
        # the bucket's upper bound).
        assert hist.percentile(50) == pytest.approx(40.0)
        # rank 6 is alone in (100, 1000]: interpolates to the top.
        assert hist.percentile(99) == pytest.approx(1000.0)
        assert hist.min == 5 and hist.max == 500
        assert hist.mean == pytest.approx(660 / 6)

    def test_percentile_monotone_in_p(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(10, 100, 1000))
        for v in (5, 5, 50, 50, 50, 500):
            hist.observe(v)
        values = [hist.percentile(p)
                  for p in (1, 25, 50, 75, 90, 99, 99.9)]
        assert values == sorted(values)

    def test_snapshot_exposes_sum_and_p999(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(10, 100))
        for v in (5, 50, 50):
            hist.observe(v)
        snap = reg.snapshot()["histograms"]["lat"]
        assert snap["sum"] == 105
        assert snap["sum"] == snap["total"]
        assert snap["p999"] == hist.percentile(99.9)

    def test_overflow_bucket_reports_observed_max(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(10,))
        hist.observe(99)
        assert hist.percentile(50) == 99
        snap = reg.snapshot()["histograms"]["lat"]
        assert snap["overflow"] == 1

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_empty_percentile_is_none(self):
        hist = MetricsRegistry().histogram("lat")
        assert hist.percentile(50) is None


class TestSnapshot:
    def _populate(self, reg):
        reg.counter("b", z=1).inc(2)
        reg.counter("a").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1, 2)).observe(1)

    def test_snapshot_deterministic_and_json_stable(self):
        reg1, reg2 = MetricsRegistry(), MetricsRegistry()
        self._populate(reg1)
        self._populate(reg2)
        s1, s2 = reg1.snapshot(), reg2.snapshot()
        assert s1 == s2
        assert (json.dumps(s1, sort_keys=True)
                == json.dumps(s2, sort_keys=True))

    def test_merge_adds_counters_and_histograms(self):
        reg1, reg2 = MetricsRegistry(), MetricsRegistry()
        self._populate(reg1)
        self._populate(reg2)
        reg2.histogram("h", buckets=(1, 2)).observe(100)   # overflow
        reg1.merge_snapshot(reg2.snapshot())
        snap = reg1.snapshot()
        assert snap["counters"]["b{z=1}"] == 4
        assert snap["counters"]["a"] == 2
        assert snap["gauges"]["g"] == 1.5
        h = snap["histograms"]["h"]
        assert h["count"] == 3
        assert h["overflow"] == 1
        assert h["max"] == 100

    def test_merge_bucket_mismatch_raises(self):
        reg1, reg2 = MetricsRegistry(), MetricsRegistry()
        reg1.histogram("h", buckets=(1, 2)).observe(1)
        reg2.histogram("h", buckets=(5, 6)).observe(5)
        with pytest.raises(ValueError):
            reg1.merge_snapshot(reg2.snapshot())

    def test_merge_empty_snapshot_is_noop(self):
        reg = MetricsRegistry()
        self._populate(reg)
        before = reg.snapshot()
        reg.merge_snapshot({})
        reg.merge_snapshot({"counters": {}, "gauges": {},
                            "histograms": {}})
        assert reg.snapshot() == before

    def test_merge_gauge_last_write_wins_across_worker_order(self):
        # The parallel runner absorbs per-worker snapshots in spec
        # order; a gauge must end at the *last* worker's value no
        # matter what it held before.
        workers = []
        for value in (3.0, 7.0, 5.0):
            reg = MetricsRegistry()
            reg.gauge("depth").set(value)
            workers.append(reg.snapshot())
        parent = MetricsRegistry()
        for snap in workers:
            parent.merge_snapshot(snap)
        assert parent.gauge("depth").value == 5.0
        parent2 = MetricsRegistry()
        for snap in reversed(workers):
            parent2.merge_snapshot(snap)
        assert parent2.gauge("depth").value == 3.0

    def test_merge_bucket_count_mismatch_message_is_clear(self):
        reg1, reg2 = MetricsRegistry(), MetricsRegistry()
        reg1.histogram("h", buckets=(1, 2, 3)).observe(1)
        reg2.histogram("h", buckets=(1, 2)).observe(1)
        with pytest.raises(ValueError) as exc:
            reg1.merge_snapshot(reg2.snapshot())
        message = str(exc.value)
        assert "bucket mismatch" in message
        assert "3 bounds" in message and "2" in message

    def test_merge_rejects_bucketless_histogram_payload(self):
        reg = MetricsRegistry()
        corrupt = {"histograms": {"h": {
            "count": 1, "total": 5, "sum": 5, "min": 5, "max": 5,
            "mean": 5.0, "p50": 5, "p90": 5, "p99": 5, "p999": 5,
            "buckets": [], "overflow": 1}}}
        with pytest.raises(ValueError) as exc:
            reg.merge_snapshot(corrupt)
        assert "no buckets" in str(exc.value)


class TestExemplars:
    """The hash-max exemplar store the fleet scheduler's latency
    windows keep; registry histograms carry no exemplars."""

    def test_plain_histograms_skip_the_key(self):
        from repro.telemetry.registry import MetricsRegistry
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(10,)).observe(5)
        assert "exemplars" not in reg.snapshot()["histograms"]["lat"]

    def test_hash_max_selection_is_order_independent(self):
        from repro.telemetry.registry import exemplars_dict, merge_exemplar
        ids = [f"t{i}#0" for i in range(8)]
        winners = []
        for ordering in (ids, list(reversed(ids))):
            store = None
            for tid in ordering:
                store = merge_exemplar(store, 0, tid, 1)
            winners.append(exemplars_dict(store))
        assert winners[0] == winners[1]
        assert list(winners[0]) == ["0"]
        assert winners[0]["0"]["trace_id"] in ids

    def test_merge_snapshot_is_commutative(self):
        from repro.telemetry.registry import MetricsRegistry

        def snap(value):
            reg = MetricsRegistry()
            reg.histogram("lat", buckets=(10,)).observe(value)
            return reg.snapshot()

        a, b = snap(1), snap(20)
        ab = MetricsRegistry()
        ab.merge_snapshot(a)
        ab.merge_snapshot(b)
        ba = MetricsRegistry()
        ba.merge_snapshot(b)
        ba.merge_snapshot(a)
        assert ab.snapshot() == ba.snapshot()

    def test_exemplar_rank_is_stable(self):
        from repro.telemetry.registry import exemplar_rank
        assert exemplar_rank("t0#0") == exemplar_rank("t0#0")
        assert exemplar_rank("t0#0") != exemplar_rank("t0#1")
