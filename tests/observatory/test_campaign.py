"""``crossover observatory``: the standard recording, its exports, the
SLO gate and offline ``--check``."""

import json
from pathlib import Path

import pytest

from repro.campaign import main
from repro.observatory import campaign
from repro.observatory.store import crosscheck

CHECKED_IN = Path(__file__).resolve().parents[2] / "OBSERVATORY_PR8.json"
PASSING = "world_call.cycles.p99 < 100000"
TRIPPING = "world_call.cycles.p99 < 1"


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """One live run with a passing objective under ``--strict`` and
    both exports; returns the output directory."""
    out = tmp_path_factory.mktemp("observatory")
    code = main(["observatory", "--workers", "1", "--quiet", "--strict",
                 "--slo", PASSING, "--out", str(out / "obs.json"),
                 "--html", str(out / "dash.html"),
                 "--openmetrics", str(out / "totals.om")])
    assert code == 0
    return out


@pytest.fixture
def artifact(recording):
    return json.loads((recording / "obs.json").read_text())


class TestRecording:
    def test_regenerates_the_checked_in_artifact(self, recording):
        assert (recording / "obs.json").read_bytes() == \
            CHECKED_IN.read_bytes()

    def test_artifact_shape(self, artifact):
        assert artifact["schema"] == campaign.SCHEMA
        assert artifact["summary"]["crosscheck_ok"]
        runners = [cell["runner"] for cell in artifact["cells"]]
        assert runners == ["table4"] * 4 + ["switchlesscell"]
        for cell in artifact["cells"]:
            assert cell["windows"], "every cell must record activity"
            assert cell["crosscheck"]["ok"]
            # No host-side data leaks into the artifact.
            assert "config" not in cell and "label" not in cell

    def test_bursty_cell_carries_the_flip_event(self, artifact):
        cell = next(c for c in artifact["cells"]
                    if c["runner"] == "switchlesscell")
        flips = [e for e in cell["events"]
                 if e["kind"] == "switchless.flip"]
        assert flips
        for flip in flips:
            assert flip["window"] == \
                flip["cycles"] // artifact["window_cycles"]

    def test_exports_html_and_openmetrics(self, recording):
        assert "<svg" in (recording / "dash.html").read_text()
        text = (recording / "totals.om").read_text()
        assert text.endswith("# EOF\n")
        # Totals carry the registry counters (the crosscheck domain).
        assert "core_world_calls_total" in text


class TestSloGate:
    def test_passing_objective_is_recorded_clean(self, artifact):
        assert artifact["slo"]["violated"] == []
        assert [o["objective"] for o in artifact["slo"]["objectives"]] \
            == [PASSING]

    def test_tripping_objective_is_report_only_by_default(self, capsys):
        assert main(["observatory", "--workers", "1", "--quiet",
                     "--slo", TRIPPING]) == 0
        assert "SLO violated" in capsys.readouterr().err

    def test_tripping_objective_under_strict_exits_one(self):
        assert main(["observatory", "--workers", "1", "--quiet",
                     "--strict", "--slo", TRIPPING]) == 1

    def test_bad_objective_is_usage_error(self):
        assert main(["observatory", "--quiet", "--slo", "nonsense"]) == 2

    @pytest.mark.parametrize("objective", [
        "world_call.cycles.p99 < nan", "world_call.cycles.p99 >= nan",
        "world_call.cycles.p99 < inf", "world_call.cycles.p99 > -inf"])
    def test_non_finite_threshold_is_usage_error(self, objective,
                                                 monkeypatch, capsys):
        def record(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(campaign, "record", record)
        assert main(["observatory", "--quiet", "--strict",
                     "--slo", objective]) == 2
        assert "finite" in capsys.readouterr().err


class TestCheck:
    def test_checked_in_artifact_verifies(self, capsys):
        assert main(["observatory", "--check", str(CHECKED_IN)]) == 0
        assert capsys.readouterr().out.endswith(": ok\n")

    def test_tampered_total_fails_despite_its_ok_flag(self, artifact,
                                                      tmp_path, capsys):
        cell = artifact["cells"][0]
        counter = next(iter(cell["totals"]))
        cell["totals"][counter] += 7
        assert cell["crosscheck"]["ok"]
        assert not crosscheck(cell)["ok"]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(artifact))
        assert main(["observatory", "--check", str(tampered),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "crosscheck mismatch" in err and counter in err

    def test_false_cell_claim_fails(self, artifact, tmp_path, capsys):
        artifact["cells"][2]["crosscheck"]["ok"] = False
        tampered = tmp_path / "claim.json"
        tampered.write_text(json.dumps(artifact))
        assert main(["observatory", "--check", str(tampered),
                     "--quiet"]) == 1
        assert "crosscheck.ok" in capsys.readouterr().err
