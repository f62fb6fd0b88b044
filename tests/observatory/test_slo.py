"""Unit tests for the SLO grammar and burn-rate alerting."""

import pytest

from repro.observatory.slo import SloObjective, evaluate_slos


def _window(index, counters=None, gauges=None, histograms=None,
            subsystems=None, cycles=1000):
    return {
        "index": index,
        "start_cycles": index * 1000,
        "cycles": cycles,
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
        "subsystems": subsystems or {},
    }


def _hist(count, total, p99=None, p999=None):
    data = {"count": count, "sum": total,
            "mean": total / count if count else 0.0}
    if p99 is not None:
        data["p99"] = p99
    if p999 is not None:
        data["p999"] = p999
    return data


class TestParse:
    def test_round_trip(self):
        obj = SloObjective.parse("world_call.cycles.p99 < 600")
        assert obj.series == "world_call.cycles"
        assert obj.stat == "p99"
        assert obj.op == "<"
        assert obj.threshold == 600.0
        assert obj.raw == "world_call.cycles.p99 < 600"

    def test_stat_is_longest_dot_suffix(self):
        # p999 must not parse as series "...p99" + stray "9".
        obj = SloObjective.parse("lat.p999 <= 10")
        assert obj.series == "lat"
        assert obj.stat == "p999"

    @pytest.mark.parametrize("text", [
        "lat.p99 <",                    # missing threshold
        "lat.p99 < 1 extra",            # too many parts
        "lat.p99 ~ 1",                  # unknown operator
        "lat.nosuchstat < 1",           # unknown stat
        "nodot < 1",                    # no stat suffix at all
        "lat.p99 < banana",             # non-numeric threshold
    ])
    def test_malformed_objectives_raise(self, text):
        with pytest.raises(ValueError):
            SloObjective.parse(text)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_threshold_raises(self, threshold):
        with pytest.raises(ValueError, match=f"finite.*{threshold}"):
            SloObjective.parse(f"lat.p99 < {threshold}")

    def test_window_policy_validation(self):
        with pytest.raises(ValueError):
            SloObjective("s", "p99", "<", 1.0, short=0)
        with pytest.raises(ValueError):
            SloObjective("s", "p99", "<", 1.0, short=8, long=4)


class TestResolve:
    def test_histogram_percentile_from_derived_stats(self):
        obj = SloObjective.parse("lat.p99 < 100")
        window = _window(0, histograms={"lat": _hist(4, 200, p99=90.0)})
        assert obj.resolve(window) == 90.0

    def test_counter_rate_uses_window_cycles(self):
        obj = SloObjective.parse("calls.rate < 1")
        window = _window(0, counters={"calls": 500}, cycles=1000)
        assert obj.resolve(window) == pytest.approx(0.5)

    def test_family_match_merges_label_sets(self):
        obj = SloObjective.parse("calls.count < 100")
        window = _window(0, counters={"calls{kind=a}": 3,
                                      "calls{kind=b}": 4,
                                      "other": 99})
        assert obj.resolve(window) == 7.0

    def test_subsystem_stats_resolve_as_counters(self):
        obj = SloObjective.parse("switchless.flips.value < 5")
        window = _window(0, subsystems={"switchless.flips": 2})
        assert obj.resolve(window) == 2.0

    def test_gauge_value(self):
        obj = SloObjective.parse("depth.value < 5")
        window = _window(0, gauges={"depth": 3})
        assert obj.resolve(window) == 3.0

    def test_absent_series_is_none(self):
        obj = SloObjective.parse("missing.p99 < 1")
        assert obj.resolve(_window(0)) is None


class TestBurnRate:
    def _eval(self, bad_pattern, **kwargs):
        # value 10 with threshold "< 5" is bad; value 1 is good.
        obj = SloObjective("lat", "sum", "<", 5.0, **kwargs)
        windows = [
            _window(i, counters={"lat": 10 if bad else 1})
            for i, bad in enumerate(bad_pattern)
        ]
        return obj.evaluate(windows)

    def test_all_good_fires_nothing(self):
        result = self._eval([False] * 20)
        assert result["bad"] == 0
        assert result["alerts"] == []

    def test_sustained_burn_fires_once_on_the_rising_edge(self):
        result = self._eval([False] * 4 + [True] * 12,
                            short=4, long=16,
                            fast_burn=0.5, slow_burn=0.25)
        assert result["bad"] == 12
        assert len(result["alerts"]) == 1
        alert = result["alerts"][0]
        # windows 4,5 are the first two bad ones: at window 5 the short
        # rate hits 2/4 = 0.5 and the long rate 2/6 > 0.25.
        assert alert["window"] == 5
        assert alert["short_burn"] >= 0.5

    def test_recovery_then_reburn_fires_again(self):
        pattern = ([True] * 4 + [False] * 12) * 2
        result = self._eval(pattern, short=4, long=16)
        assert len(result["alerts"]) == 2

    def test_isolated_blip_does_not_fire(self):
        result = self._eval([False] * 8 + [True] + [False] * 8,
                            short=4, long=16,
                            fast_burn=0.5, slow_burn=0.25)
        assert result["bad"] == 1
        assert result["alerts"] == []

    def test_skipped_windows_are_not_bad(self):
        obj = SloObjective("lat", "sum", "<", 5.0)
        windows = [_window(0, counters={"lat": 1}), _window(1), _window(2)]
        result = obj.evaluate(windows)
        assert result["windows"] == 1
        assert result["skipped"] == 2
        assert result["bad"] == 0

    def test_worst_tracks_the_failing_direction(self):
        low = SloObjective("lat", "sum", "<", 100.0).evaluate(
            [_window(0, counters={"lat": 3}),
             _window(1, counters={"lat": 9})])
        assert low["worst"] == 9.0
        high = SloObjective("lat", "sum", ">", 0.0).evaluate(
            [_window(0, counters={"lat": 3}),
             _window(1, counters={"lat": 9})])
        assert high["worst"] == 3.0


class TestTopCause:
    def _burn(self, causes):
        # Sustained burn starting at window 4 fires at window 5 (see
        # TestBurnRate.test_sustained_burn_fires_once_on_the_rising_edge).
        obj = SloObjective("lat", "sum", "<", 5.0, short=4, long=16,
                          fast_burn=0.5, slow_burn=0.25)
        windows = [_window(i, counters={"lat": 10 if i >= 4 else 1})
                   for i in range(16)]
        return obj.evaluate(windows, causes=causes)

    def test_alert_names_the_windows_contention_cause(self):
        result = self._burn({5: "hv_wait", 9: "queue_wait"})
        alert = result["alerts"][0]
        assert alert["window"] == 5
        assert alert["top_cause"] == "hv_wait"

    def test_absent_cause_omits_the_key(self):
        result = self._burn({9: "hv_wait"})
        assert "top_cause" not in result["alerts"][0]

    def test_no_causes_map_keeps_legacy_shape(self):
        result = self._burn(None)
        assert "top_cause" not in result["alerts"][0]

    def test_evaluate_slos_threads_causes_through(self):
        windows = [_window(i, counters={"lat": 10}) for i in range(8)]
        report = evaluate_slos(["lat.sum < 5"], windows,
                               causes={i: "hv_wait" for i in range(8)})
        alerts = report["objectives"][0]["alerts"]
        assert alerts and all(a["top_cause"] == "hv_wait"
                              for a in alerts)


class TestEvaluateSlos:
    def test_summary_counts_alerts_and_violations(self):
        windows = [_window(i, counters={"lat": 10}) for i in range(8)]
        report = evaluate_slos(
            ["lat.sum < 5", "lat.sum < 100"], windows)
        assert report["alerts_fired"] >= 1
        assert report["violated"] == ["lat.sum < 5"]
        assert len(report["objectives"]) == 2

    def test_accepts_parsed_objectives(self):
        report = evaluate_slos(
            [SloObjective("lat", "sum", "<", 5.0)],
            [_window(0, counters={"lat": 1})])
        assert report["violated"] == []
