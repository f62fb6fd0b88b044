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


class TestVerify:
    def test_clean_artifact_exits_zero(self, artifact_path, capsys):
        assert main(["audit", "--check", str(artifact_path)]) == 0
        assert f"{artifact_path}: ok" in capsys.readouterr().out
