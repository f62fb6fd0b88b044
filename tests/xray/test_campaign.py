"""The x-ray side of the ``crossover fleet`` campaign: tail explainer,
noisy neighbours, conservation, lane sweep, Perfetto export and the
verify path, on a small saturating sweep."""

import copy
import json
from pathlib import Path

import pytest

from repro.campaign import main, write_artifact
from repro.fleet import campaign
from repro.telemetry.schema import load_schema, validate
from repro.xray.explain import render_report
from repro.xray.export import chrome_trace_from_artifact

CHECKED_IN = Path(__file__).resolve().parents[2] / "XRAY_PR10.json"


@pytest.fixture(scope="module")
def artifact():
    # Small but saturating: 16x rates push the serialized baseline past
    # its hypervisor ceiling at 50 tenants, so every claim of the fleet
    # campaign, baseline saturation included, holds.
    return campaign.run_campaign(tenant_counts=(10, 50), horizon_ms=5,
                                 rate_scale=16.0, churn_every=100,
                                 workers=1)


class TestCampaign:
    def test_all_claims_hold(self, artifact):
        assert all(artifact["summary"].values()), artifact["summary"]

    def test_schema_valid(self, artifact):
        assert validate(artifact, load_schema("fleet")) == []

    def test_worker_count_invariance(self, artifact):
        again = campaign.run_campaign(tenant_counts=(10, 50),
                                      horizon_ms=5, rate_scale=16.0,
                                      churn_every=100, workers=2)
        assert json.dumps(again, sort_keys=True) \
            == json.dumps(artifact, sort_keys=True)

    def test_tail_reproduces_the_fleet_story(self, artifact):
        rows = {row["mechanism"]: row for row in artifact["tail"]}
        assert rows["baseline"]["dominant_segment"] == "hv_wait"
        for mechanism in ("world_call", "switchless"):
            assert rows[mechanism]["per_stage"]["hv_wait"] == 0

    def test_conservation_and_baseline_contention_share(self, artifact):
        assert artifact["conservation"]["ok"]
        exemplar = next(row["p99_exemplar"] for row in artifact["tail"]
                        if row["mechanism"] == "baseline")
        share = exemplar["contention_cycles"] / exemplar["latency"]
        assert 0 < share <= 1

    def test_lane_sweep_covers_all_widths(self, artifact):
        lanes = artifact["lane_sweep"]
        assert sorted(lanes) == ["baseline", "world_call"]
        for mechanism, widths in lanes.items():
            assert sorted(widths) == ["1", "2", "4"]
            assert widths["1"]["xray"] \
                == artifact["cells"][f"{mechanism}@10"]["xray"]
        assert artifact["summary"]["lane_identical"]

    def test_telemetry_counts_sampled_traces(self, artifact):
        assert artifact["telemetry"]["fleet.xray_traces_sampled"] > 0

    def test_report_renders(self, artifact):
        text = render_report(artifact)
        assert "Tail explainer" in text
        assert "Noisy neighbors" in text
        assert "hv_wait" in text

    def test_chrome_export_is_valid_and_tiled(self, artifact):
        trace = chrome_trace_from_artifact(artifact)
        assert validate(trace, load_schema("chrome_trace")) == []
        spans = [e for e in trace["traceEvents"]
                 if e.get("cat") == "xray.segment"]
        assert spans
        trace_one = chrome_trace_from_artifact(
            artifact, cells=["baseline@50"])
        names = {e["args"]["name"] for e in trace_one["traceEvents"]
                 if e["ph"] == "M"}
        assert names == {"baseline@50"}
        with pytest.raises(KeyError):
            chrome_trace_from_artifact(artifact, cells=["nope@1"])

    def test_bad_args_raise(self):
        with pytest.raises(ValueError):
            campaign.run_campaign(tenant_counts=())
        with pytest.raises(ValueError):
            campaign.run_campaign(tenant_counts=(0, 10))
        # Sampling is fixed at DEFAULT_SAMPLE_EVERY: no knob to set.
        with pytest.raises(TypeError):
            campaign.run_campaign(tenant_counts=(10,), sample_every=0)


class TestCli:
    def test_out_check_roundtrip_and_tamper(self, artifact, tmp_path):
        path = tmp_path / "fleet.json"
        write_artifact(artifact, str(path))
        assert main(["fleet", "--check", str(path), "--quiet"]) == 0
        tampered = json.loads(path.read_text())
        key = sorted(tampered["cells"])[0]
        tampered["cells"][key]["xray"]["traces"][0]["segments"][
            "handler"] += 1
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(tampered))
        assert main(["fleet", "--check", str(bad), "--quiet"]) == 1

    def test_checked_in_cell_missing_a_fleet_field_fails_schema(
            self, artifact, tmp_path, capsys):
        """A checked-in x-ray cell is checked against the whole
        fleet-cell shape."""
        key = "baseline@10"
        cell = json.loads(CHECKED_IN.read_text())["cells"][key]
        broken = copy.deepcopy(artifact)
        broken["cells"][key] = cell
        assert validate(broken, load_schema("fleet")) == []
        del cell["throughput_rps"]
        errors = validate(broken, load_schema("fleet"))
        assert errors == [f"$.cells.{key}: missing required key "
                          f"'throughput_rps'"]
        bad = tmp_path / "no-throughput.json"
        bad.write_text(json.dumps(broken))
        assert main(["fleet", "--check", str(bad), "--quiet"]) == 1
        assert "schema violation" in capsys.readouterr().err

    def test_check_unreadable_is_usage_error(self, tmp_path):
        assert main(["fleet", "--check", str(tmp_path / "missing.json"),
                     "--quiet"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--tenants", "0"],
        ["--tenants", "nope"],
        ["--horizon-ms", "0"],
        # The sampling knobs are gone: unknown flags are usage errors.
        ["--sample-every", "0"],
        ["--keep", "0"],
        ["--slo", "not an objective"],
        ["--horizon-ms", "nan"],
        ["--horizon-ms", "inf"],
        ["--rate-scale", "nan"],
        ["--rate-scale", "inf"],
    ])
    def test_bad_usage_exits_2(self, argv):
        assert main(["fleet"] + argv + ["--quiet"]) == 2
