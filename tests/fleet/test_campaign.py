"""The fleet campaign: worker independence, schema, claims, peak
throughput, telemetry counters and the CLI's verify path (its x-ray
sections are covered in ``tests/xray/test_campaign.py``)."""

import copy
import json

import pytest

from repro.campaign import main, write_artifact
from repro.fleet import campaign
from repro.telemetry.schema import load_schema, validate

# Small but *saturating* sweep: 12 tenants at 80x rate offer ~1M
# world-call transitions per modeled second, ~2x the serialized
# baseline's transition capacity, so the throughput/p99 and tail claims
# materialize at test scale.
COUNTS = (4, 12)
KW = dict(tenant_counts=COUNTS, horizon_ms=2.0, churn_every=50,
          rate_scale=80.0)
TOP = COUNTS[-1]


@pytest.fixture(scope="module")
def artifact():
    return campaign.run_campaign(seed=0, workers=1, **KW)


class TestCampaign:
    def test_byte_identical_across_pool_widths(self, artifact):
        again = campaign.run_campaign(seed=0, workers=2, **KW)
        assert json.dumps(artifact, sort_keys=True) \
            == json.dumps(again, sort_keys=True)

    def test_schema_validates(self, artifact):
        assert validate(artifact, load_schema("fleet")) == []
        assert artifact["schema"] == campaign.SCHEMA

    def test_claims_hold_at_saturation(self, artifact):
        assert all(artifact["summary"].values()), artifact["summary"]
        assert len(artifact["summary"]) == 12

    def test_curves_cover_the_sweep(self, artifact):
        assert set(artifact["cells"]) == {
            f"{mechanism}@{count}"
            for mechanism in artifact["mechanisms"] for count in COUNTS}
        for key, cell in artifact["cells"].items():
            assert f"{cell['mechanism']}@{cell['tenants']}" == key
            assert cell["costs"]["mechanism"] == cell["mechanism"]
        assert "curves" not in artifact and "costs" not in artifact

    def test_telemetry_counters_collected(self, artifact):
        counters = artifact["telemetry"]
        assert counters["fleet.requests"] > 0
        assert counters["fleet.completed"] > 0
        assert counters["fleet.sched_events"] > 0
        assert counters["fleet.revocations"] > 0
        assert counters["fleet.xray_traces_sampled"] > 0

    def test_world_call_outpeaks_baseline(self, artifact):
        def peak(mechanism):
            return max(artifact["cells"][f"{mechanism}@{count}"]
                       ["throughput_rps"] for count in COUNTS)

        assert peak("baseline") < peak("world_call")
        # The cells cover one lane; the telemetry counter additionally
        # covers the 2/4-lane determinism cells.
        cell_events = sum(cell["sched_events"]
                          for cell in artifact["cells"].values())
        assert artifact["telemetry"]["fleet.sched_events"] > cell_events

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
        assert "Fleet throughput" in text
        assert "1/2/4-lane trace-identical: True" \
            in campaign.CAMPAIGN.render(artifact)


def _lane(artifact, mechanism):
    return artifact["lane_sweep"][mechanism]["2"]


#: Edits that contradict the recorded claims or sections without
#: touching them, and the disagreement ``--check`` must report for each.
TAMPERS = {
    "world_call_lane_cell": (
        lambda a: _lane(a, "world_call").update(
            completed=_lane(a, "world_call")["completed"] + 1),
        "claim lane_identical recorded as True, but the cells say False"),
    "baseline_lane_cell": (
        lambda a: _lane(a, "baseline").update(
            completed=_lane(a, "baseline")["completed"] + 1),
        "claim lane_identical recorded as True, but the cells say False"),
    "top_baseline_throughput": (
        lambda a: a["cells"][f"baseline@{TOP}"].update(throughput_rps=1e9),
        "claim world_call_beats_baseline_at_top recorded as True"),
    "tail_dominant_segment": (
        lambda a: a["tail"][0].update(dominant_segment="handler"),
        "tail disagrees with the recorded cells"),
}


class TestCli:
    def test_usage_errors_exit_2(self, capsys):
        assert main(["fleet", "--tenants", "abc"]) == 2
        assert main(["fleet", "--tenants", "0"]) == 2
        assert main(["fleet", "--tenants", "0,5"]) == 2
        assert main(["fleet", "--horizon-ms", "0"]) == 2
        assert main(["fleet", "--rate-scale", "-1"]) == 2
        assert main(["fleet", "--slo", "not an objective"]) == 2
        for flag in ("--horizon-ms", "--rate-scale"):
            for value in ("nan", "inf", "-inf"):
                assert main(["fleet", flag, value]) == 2, (flag, value)
        for gone in ("--sample-every", "--keep"):
            assert main(["fleet", gone, "4"]) == 2
        capsys.readouterr()

    def test_full_run_writes_valid_artifact(self, tmp_path, capsys):
        out = tmp_path / "FLEET.json"
        trace = tmp_path / "fleet.trace.json"
        code = main(["fleet", "--tenants", "4,12", "--horizon-ms", "2",
                     "--rate-scale", "80", "--churn-every", "50",
                     "--workers", "1", "--out", str(out),
                     "--trace-out", str(trace),
                     # violated objective, but lenient without
                     # --strict: the run still exits 0
                     "--slo", "fleet.latency.cycles.p99 < 1"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "Fleet throughput" in captured.out
        assert "Tail explainer" in captured.out
        written = json.loads(out.read_text())
        assert validate(written, load_schema("fleet")) == []
        report = written["slo"]["baseline@12"]
        assert report["violated"]
        exported = json.loads(trace.read_text())
        assert validate(exported, load_schema("chrome_trace")) == []

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

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_contradicting_data_fails_check(self, artifact, tamper,
                                            tmp_path, capsys):
        """Claims and sections are re-derived from the cells and lanes,
        so an edit that leaves them stale is caught."""
        edit, reported = TAMPERS[tamper]
        tampered = copy.deepcopy(artifact)
        edit(tampered)
        path = tmp_path / f"{tamper}.json"
        write_artifact(tampered, str(path))
        assert validate(tampered, load_schema("fleet")) == []
        assert main(["fleet", "--check", str(path), "--quiet"]) == 1
        assert reported in capsys.readouterr().err

    def test_uncovered_sweep_fails_check(self, artifact, tmp_path, capsys):
        broken = copy.deepcopy(artifact)
        del broken["cells"][f"switchless@{TOP}"]
        path = tmp_path / "missing-cell.json"
        write_artifact(broken, str(path))
        assert main(["fleet", "--check", str(path), "--quiet"]) == 1
        assert "do not cover" in capsys.readouterr().err
