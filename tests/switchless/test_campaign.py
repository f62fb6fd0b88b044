"""Campaign and artifact tests: the three-way comparison, the adaptive
proof, pool-worker byte-identity, schema validity, CLI exit codes, and
the mechanisms sweep through the parallel runner."""

import json

import pytest

from repro.campaign import main
from repro.switchless import campaign
from repro.telemetry.schema import load_schema, validate


@pytest.fixture(scope="module")
def artifact():
    return campaign.run_campaign(seed=0, iterations=2, workers=1)


class TestCampaign:
    def test_matches_schema(self, artifact):
        assert validate(artifact, load_schema("switchless")) == []

    def test_three_way_ordering(self, artifact):
        """Every lmbench row: switchless < world_call < baseline."""
        for op, by in artifact["three_way"].items():
            assert by["switchless"] < by["world_call"] < by["baseline"], op

    def test_adaptive_beats_world_call_on_bursty(self, artifact):
        entry = artifact["adaptive"]["bursty"]
        assert entry["adaptive_beats_world_call"]
        assert entry["adaptive_flips"] >= 1
        by = entry["mechanisms"]
        assert (by["adaptive"]["cycles_calls"]
                < by["world_call"]["cycles_calls"])

    def test_adaptive_stays_put_on_sparse(self, artifact):
        entry = artifact["adaptive"]["sparse"]
        assert entry["adaptive_flips"] == 0
        by = entry["mechanisms"]
        # Static switchless is the wrong call here — every call pays a
        # worker wakeup — and not flipping means adaptive == world_call.
        assert (by["switchless"]["cycles_calls"]
                > by["world_call"]["cycles_calls"])
        assert (by["adaptive"]["cycles_calls"]
                == by["world_call"]["cycles_calls"])

    def test_worker_sweep_identical(self, artifact):
        sweep = artifact["worker_sweep"]
        assert sweep["cycles_identical"]
        assert set(sweep["cells"]) == {"1", "2", "4"}

    def test_summary_claims_hold(self, artifact):
        assert all(artifact["summary"].values())

    def test_telemetry_counters_flowed(self, artifact):
        assert any(key.startswith("switchless.calls")
                   for key in artifact["telemetry"])

    def test_render_summary_mentions_headlines(self, artifact):
        text = campaign.render_summary(artifact)
        assert "adaptive" in text
        assert "NULL system call" in text


class TestDeterminism:
    def test_byte_identical_across_pool_workers(self):
        dumps = []
        for workers in (1, 4):
            artifact = campaign.run_campaign(seed=0, iterations=1,
                                             workers=workers)
            dumps.append(json.dumps(artifact, sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_schedule_is_seeded(self):
        assert campaign.schedule("bursty", 0) == campaign.schedule(
            "bursty", 0)
        assert campaign.schedule("bursty", 0) != campaign.schedule(
            "bursty", 1)


class TestCli:
    def test_exit_zero_and_artifact(self, tmp_path, capsys):
        out = tmp_path / "SWITCHLESS.json"
        code = main(["switchless", "--iterations", "1", "--workers", "1",
                     "--out", str(out), "--quiet"])
        assert code == 0
        written = json.loads(out.read_text())
        assert written["schema"] == campaign.SCHEMA
        assert validate(written, load_schema("switchless")) == []

    def test_usage_error(self, capsys):
        assert main(["switchless", "--iterations", "0"]) == 2
