"""Campaign-level tests: full resilience sweep, determinism across
worker counts, schema validity, crosschecks and CLI exit codes."""

import json

import pytest

from repro.campaign import main
from repro.faults import campaign
from repro.faults.sites import SITE_NAMES
from repro.telemetry.schema import load_schema, validate


@pytest.fixture(scope="module")
def full_artifact():
    """One full campaign: every system x every site, serial."""
    return campaign.run_campaign(ops=4, seed=11, workers=1)


class TestFullCampaign:
    def test_covers_all_systems_and_sites(self, full_artifact):
        assert full_artifact["systems"] == list(campaign.CAMPAIGN_SYSTEMS)
        assert set(full_artifact["matrix"]) == set(SITE_NAMES)
        assert len(SITE_NAMES) >= 10

    def test_every_site_injected_somewhere(self, full_artifact):
        assert (full_artifact["summary"]["sites_exercised"]
                == len(SITE_NAMES))

    def test_zero_invariant_violations(self, full_artifact):
        assert full_artifact["summary"]["invariant_violations"] == 0
        assert full_artifact["totals"]["outcomes"][
            "invariant-violation"] == 0

    def test_all_injected_faults_handled(self, full_artifact):
        assert full_artifact["summary"]["recovered_percent"] == 100.0

    def test_crosscheck_reconciles_with_telemetry(self, full_artifact):
        crosscheck = full_artifact["crosscheck"]
        assert crosscheck["ok"]
        names = [check["name"] for check in crosscheck["checks"]]
        assert "injected-matches-telemetry" in names
        assert "recoveries-match-telemetry" in names

    def test_artifact_matches_schema(self, full_artifact):
        assert validate(full_artifact, load_schema("faults")) == []

    def test_recovery_policies_observed(self, full_artifact):
        recoveries = full_artifact["recoveries"]
        for policy in ("revalidate", "legacy_fallback", "crossvm_legacy",
                       "watchdog_timeout", "marshal_repair"):
            assert recoveries.get(policy, 0) >= 1, policy


class TestDeterminism:
    def test_byte_identical_across_worker_counts(self):
        dumps = []
        for workers in (1, 2, 4):
            artifact = campaign.run_campaign(ops=3, seed=9,
                                             workers=workers)
            dumps.append(json.dumps(artifact, sort_keys=True))
        assert dumps[0] == dumps[1] == dumps[2]

    def test_seed_changes_schedules(self):
        a = campaign.run_campaign(systems=["ShadowContext"],
                                  sites=["hw.entry_revoked"],
                                  ops=8, seed=1, workers=1)
        b = campaign.run_campaign(systems=["ShadowContext"],
                                  sites=["hw.entry_revoked"],
                                  ops=8, seed=2, workers=1)
        assert a["matrix"] != b["matrix"] or a["seed"] != b["seed"]

    def test_validation_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            campaign.run_campaign(systems=["NotASystem"])
        with pytest.raises(ValueError):
            campaign.run_campaign(sites=["no.such.site"])
        with pytest.raises(ValueError):
            campaign.run_campaign(disabled=["no_such_policy"])


class TestAblation:
    def test_disabling_legacy_fallback_breaks_resilience(self):
        artifact = campaign.run_campaign(
            systems=["ShadowContext"], sites=["hw.entry_corrupt"],
            ops=4, seed=11, workers=1, disabled=["legacy_fallback"])
        assert artifact["summary"]["invariant_violations"] > 0


class TestCLI:
    def test_clean_campaign_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "faults.json"
        code = main(["faults", "--ops", "3", "--seed", "5", "--workers", "1",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "fault matrix" in captured.out
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == campaign.SCHEMA
        assert validate(artifact, load_schema("faults")) == []

    def test_broken_recovery_exits_nonzero(self, capsys):
        code = main(["faults", "--systems", "ShadowContext",
                     "--sites", "hw.entry_corrupt",
                     "--ops", "4", "--seed", "11", "--workers", "1",
                     "--quiet", "--disable-recovery", "legacy_fallback"])
        captured = capsys.readouterr()
        assert code == 1
        assert "invariant-violation" in captured.err

    def test_usage_errors_exit_two(self, capsys):
        assert main(["faults", "--sites", "no.such.site",
                     "--workers", "1"]) == 2
        assert main(["faults", "--ops", "0"]) == 2
        capsys.readouterr()


class TestDetectionCoverage:
    """PR-5 loop closure: every injection site must be caught blind by
    at least one audit anomaly detector (no fam-"fault" peeking)."""

    def test_every_site_detected(self, full_artifact):
        detection = full_artifact["detection"]
        assert set(detection) == set(SITE_NAMES)
        undetected = [site for site, entry in detection.items()
                      if not entry["detected"]]
        assert undetected == []
        assert (full_artifact["summary"]["sites_detected"]
                == len(SITE_NAMES))

    def test_detectors_named_per_site(self, full_artifact):
        from repro.audit import DETECTORS
        for site, entry in full_artifact["detection"].items():
            assert entry["detectors"], site
            for name in entry["detectors"]:
                assert name in DETECTORS
            assert entry["by_system"]

    def test_expected_detector_classes(self, full_artifact):
        detection = full_artifact["detection"]
        assert "forged_wid" in detection["hypervisor.forged_wid"][
            "detectors"]
        assert "injection_storm" in detection[
            "hypervisor.injection_storm"]["detectors"]
        assert "denial_burst" in detection["core.authorization_denial"][
            "detectors"]
        assert "crossing_drift" in detection[
            "hw.translation_epoch_stale"]["detectors"]

    def test_matrix_render_includes_detection(self, full_artifact):
        rendered = campaign.render_matrix(full_artifact)
        assert "audit detection: 12/12" in rendered
        assert "UNDETECTED" not in rendered
