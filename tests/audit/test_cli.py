"""crossover-audit CLI: record/verify/query/graph and exit codes."""

import json

import pytest

from repro.audit import cli, workload


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("audit") / "AUDIT.json"
    code = cli.main(["record", "--out", str(path), "--systems", "Proxos",
                     "--calls", "2", "--workers", "1", "--quiet"])
    assert code == 0
    return path


class TestRecord:
    def test_writes_schema_valid_artifact(self, artifact_path):
        artifact = json.loads(artifact_path.read_text())
        assert artifact["schema"] == workload.SCHEMA
        assert artifact["summary"]["crosscheck_ok"]

    def test_unknown_system_is_usage_error(self, tmp_path):
        code = cli.main(["record", "--out", str(tmp_path / "x.json"),
                         "--systems", "NotASystem", "--quiet"])
        assert code == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, workers, tmp_path,
                                              capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as stop:
            cli.main(["record", "--calls", "1", "--workers", workers,
                      "--out", str(out), "--quiet"])
        assert stop.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_clean_artifact_exits_zero(self, artifact_path, capsys):
        assert cli.main(["verify", str(artifact_path)]) == 0
        assert "chain intact" in capsys.readouterr().out

    def test_tampered_artifact_exits_one_with_seq(self, artifact_path,
                                                  tmp_path, capsys):
        artifact = json.loads(artifact_path.read_text())
        artifact["cells"][0]["log"]["records"][3]["detail"] = "evil"
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(artifact))
        assert cli.main(["verify", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "seq 3" in err

    def test_truncated_artifact_exits_one(self, artifact_path,
                                          tmp_path):
        artifact = json.loads(artifact_path.read_text())
        artifact["cells"][0]["log"]["records"] = \
            artifact["cells"][0]["log"]["records"][:-2]
        bad = tmp_path / "truncated.json"
        bad.write_text(json.dumps(artifact))
        assert cli.main(["verify", str(bad)]) == 1

    def test_reordered_artifact_exits_one(self, artifact_path,
                                          tmp_path):
        artifact = json.loads(artifact_path.read_text())
        records = artifact["cells"][0]["log"]["records"]
        records[1], records[2] = records[2], records[1]
        bad = tmp_path / "reordered.json"
        bad.write_text(json.dumps(artifact))
        assert cli.main(["verify", str(bad)]) == 1

    def test_wrong_schema_exits_one(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"schema": "something-else"}))
        assert cli.main(["verify", str(other)]) == 1

    def test_missing_file_is_usage_error(self):
        assert cli.main(["verify", "/nonexistent/AUDIT.json"]) == 2


class TestQuery:
    def test_filters_by_kind(self, artifact_path, capsys):
        assert cli.main(["query", str(artifact_path), "--kind",
                         "redirect_begin"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["kind"] == "redirect_begin"

    def test_count_mode(self, artifact_path, capsys):
        assert cli.main(["query", str(artifact_path), "--fam", "sys",
                         "--count"]) == 0
        count = int(capsys.readouterr().out.strip())
        assert count > 0

    def test_variant_filter(self, artifact_path, capsys):
        assert cli.main(["query", str(artifact_path), "--variant",
                         "optimized", "--fam", "core", "--kind",
                         "crossvm_begin"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["cell"].endswith("/optimized")


class TestGraph:
    def test_dot_output(self, artifact_path, capsys):
        assert cli.main(["graph", str(artifact_path), "--variant",
                         "original"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph audit {")
        assert "->" in out

    def test_json_output(self, artifact_path, capsys):
        assert cli.main(["graph", str(artifact_path), "--format",
                         "json"]) == 0
        built = json.loads(capsys.readouterr().out)
        assert set(built) == {"nodes", "edges", "forest"}

    def test_empty_selection_is_usage_error(self, artifact_path):
        assert cli.main(["graph", str(artifact_path), "--system",
                         "Tahoma"]) == 2
