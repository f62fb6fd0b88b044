"""``crossover audit``: record an artifact, --check it, and the
usage-error exit code."""

import json

import pytest

from repro.audit import workload
from repro.campaign import main


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("audit") / "AUDIT.json"
    assert main(["audit", "--out", str(path), "--workers", "1",
                 "--quiet"]) == 0
    return path


class TestRecord:
    def test_writes_schema_valid_artifact(self, artifact_path):
        artifact = json.loads(artifact_path.read_text())
        assert artifact["schema"] == workload.SCHEMA
        assert artifact["summary"]["crosscheck_ok"]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, workers, tmp_path,
                                              capsys):
        out = tmp_path / "x.json"
        assert main(["audit", "--workers", workers, "--out", str(out),
                     "--quiet"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


class TestCrossings:
    def test_every_cell_carries_the_trace_checks(self, artifact_path):
        for cell in json.loads(artifact_path.read_text())["cells"]:
            assert cell["checks"]["crossings_constant"] is True
            assert cell["checks"]["profile_matches_counters"] is True


class TestVerify:
    def test_clean_artifact_exits_zero(self, artifact_path, capsys):
        assert main(["audit", "--check", str(artifact_path)]) == 0
        assert f"{artifact_path}: ok" in capsys.readouterr().out

    def test_tampered_per_call_crossings_exit_one(self, artifact_path,
                                                   tmp_path, capsys):
        """Per-call crossings edited with the recorded checks left
        alone: every check the lists decide is re-derived."""
        artifact = json.loads(artifact_path.read_text())
        crossings = artifact["cells"][0]["crossings"]
        crossings["trace"][1] += 1
        crossings["call_spans"][2] += 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(artifact))
        assert main(["audit", "--check", str(bad), "--quiet"]) == 1
        err = capsys.readouterr().err
        for check in ("trace_matches_call_spans", "trap_overhead_constant",
                      "crossings_constant"):
            assert f"[{check}]" in err
