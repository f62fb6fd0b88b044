"""Campaign artifact: worker independence, schema, claims, peak
throughput, telemetry counters, observatory absorption, CLI."""

import json

import pytest

from repro.campaign import main
from repro.fleet import campaign

# Small but *saturating* sweep: 12 tenants at 80x rate offer ~1M
# world-call transitions per modeled second, ~2x the serialized
# baseline's transition capacity, so the throughput/p99 claims
# materialize at test scale.
COUNTS = (4, 12)
KW = dict(tenant_counts=COUNTS, horizon_ms=2.0, churn_every=50,
          rate_scale=80.0)


@pytest.fixture(scope="module")
def artifact():
    return campaign.run_campaign(seed=0, workers=1, **KW)


class TestCampaign:
    def test_byte_identical_across_pool_widths(self, artifact):
        again = campaign.run_campaign(seed=0, workers=2, **KW)
        assert json.dumps(artifact, sort_keys=True) \
            == json.dumps(again, sort_keys=True)

    def test_schema_validates(self, artifact):
        from repro.telemetry.schema import load_schema, validate

        assert validate(artifact, load_schema("fleet")) == []
        assert artifact["schema"] == campaign.SCHEMA

    def test_claims_hold_at_saturation(self, artifact):
        assert all(artifact["summary"].values()), artifact["summary"]
        assert artifact["interleave_sweep"]["cycle_identical"]
        assert set(artifact["interleave_sweep"]["cells"]) == {"1", "2", "4"}

    def test_curves_cover_the_sweep(self, artifact):
        for mechanism in artifact["mechanisms"]:
            points = artifact["curves"][mechanism]
            assert [p["tenants"] for p in points] == list(COUNTS)
            assert f"{mechanism}@{COUNTS[-1]}" in artifact["cells"]
            assert artifact["costs"][mechanism]["mechanism"] == mechanism

    def test_telemetry_counters_collected(self, artifact):
        counters = artifact["telemetry"]
        assert counters["fleet.requests"] > 0
        assert counters["fleet.completed"] > 0
        assert counters["fleet.sched_events"] > 0
        assert counters["fleet.revocations"] > 0

    def test_world_call_outpeaks_baseline(self, artifact):
        def peak(mechanism):
            return max(p["throughput_rps"]
                       for p in artifact["curves"][mechanism])

        assert peak("baseline") < peak("world_call")
        # The curves cover one lane; the telemetry counter additionally
        # covers the 2/4-lane determinism cells.
        curve_events = sum(p["sched_events"]
                           for points in artifact["curves"].values()
                           for p in points)
        assert artifact["telemetry"]["fleet.sched_events"] > curve_events

    def test_bad_fleet_shape_raises_before_any_cell(self):
        for bad in ({"tenant_counts": ()}, {"horizon_ms": 0},
                    {"horizon_ms": float("nan")}, {"horizon_ms": float("inf")},
                    {"rate_scale": float("nan")}, {"rate_scale": float("inf")},
                    {"rate_scale": -1.0}, {"churn_every": -1}, {"cores": 0}):
            with pytest.raises(ValueError):
                campaign.run_campaign(**bad)

    def test_render_summary_mentions_every_count(self, artifact):
        text = campaign.render_summary(artifact)
        for count in COUNTS:
            assert str(count) in text
        assert "cycle-identical: True" in text


class TestCli:
    def test_usage_errors_exit_2(self, capsys):
        assert main(["fleet", "--tenants", "abc"]) == 2
        assert main(["fleet", "--tenants", "0,5"]) == 2
        assert main(["fleet", "--horizon-ms", "0"]) == 2
        assert main(["fleet", "--rate-scale", "-1"]) == 2
        assert main(["fleet", "--slo", "not an objective"]) == 2
        for flag in ("--horizon-ms", "--rate-scale"):
            for value in ("nan", "inf", "-inf"):
                assert main(["fleet", flag, value]) == 2, (flag, value)
        capsys.readouterr()

    def test_full_run_writes_valid_artifact(self, tmp_path, capsys):
        out = tmp_path / "FLEET.json"
        code = main(["fleet", "--tenants", "4,12", "--horizon-ms", "2",
                     "--rate-scale", "80", "--churn-every", "50",
                     "--workers", "1", "--out", str(out),
                         # violated objective, but lenient without
                         # --strict: the run still exits 0
                         "--slo", "fleet.latency.cycles.p99 < 1"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "Fleet throughput" in captured.out
        from repro.telemetry.schema import load_schema, validate

        written = json.loads(out.read_text())
        assert validate(written, load_schema("fleet")) == []
        report = written["slo"]["baseline@12"]
        assert report["violated"]

    def test_strict_slo_trip_exits_1(self, capsys):
        # 12 tenants at 80x keeps every summary claim green, so the
        # nonzero exit below is attributable to the SLO alone.
        code = main(["fleet", "--tenants", "12", "--horizon-ms", "2",
                     "--rate-scale", "80", "--churn-every", "0",
                     "--workers", "1", "--quiet", "--strict",
                     "--slo", "fleet.latency.cycles.p99 < 1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "SLO violated" in captured.err
