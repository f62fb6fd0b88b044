"""Recorded workload cells: crosschecks against the span tracer and
the paper's Figure-2 counts, worker-count determinism, offline
verification (directly and through ``crossover audit --check``),
schema validity."""

import json

import pytest

from repro.audit import graph, workload
from repro.campaign import main, write_artifact
from repro.telemetry.schema import load_schema, validate


@pytest.fixture(scope="module")
def artifact():
    """A reduced recorded workload (two systems, serial)."""
    return workload.record_workload(systems=("Proxos", "HyperShell"),
                                    calls=3, workers=1)


class TestRecordedCells:
    def test_all_crosschecks_hold(self, artifact):
        for cell in artifact["cells"]:
            assert all(cell["checks"].values()), \
                (cell["system"], cell["variant"], cell["checks"])
        assert artifact["summary"]["crosscheck_ok"]

    def test_audit_crossings_match_span_tracer(self, artifact):
        for cell in artifact["cells"]:
            assert (cell["crossings"]["audit"]
                    == cell["crossings"]["redirect_spans"])

    def test_trace_crossings_meet_paper_bound(self, artifact):
        originals = [cell for cell in artifact["cells"]
                     if cell["variant"] == "original"]
        assert originals
        for cell in originals:
            assert cell["paper_crossings"] is not None
            for crossings in cell["crossings"]["trace"]:
                assert crossings >= cell["paper_crossings"]

    def test_optimized_crosses_less_than_original(self, artifact):
        by_variant = {}
        for cell in artifact["cells"]:
            by_variant[(cell["system"], cell["variant"])] = (
                cell["crossings"]["trace"][-1])
        for system in artifact["systems"]:
            assert (by_variant[(system, "optimized")]
                    < by_variant[(system, "original")])

    def test_no_anomalies_on_clean_runs(self, artifact):
        assert artifact["summary"]["anomalies"] == 0

    def test_artifact_matches_schema(self, artifact):
        assert validate(artifact, load_schema("audit")) == []

    def test_causal_graph_reconstructs(self, artifact):
        for cell in artifact["cells"]:
            built = graph.build_graph(cell["log"])
            assert built["nodes"]
            assert built["forest"]
            dot = graph.to_dot(built)
            assert dot.startswith("digraph audit {")


class TestOfflineVerification:
    def test_clean_artifact_verifies(self, artifact):
        assert workload.verify_artifact(artifact) == []

    def test_tampered_record_caught(self, artifact):
        copy = json.loads(json.dumps(artifact))
        copy["cells"][0]["log"]["records"][4]["detail"] = "tampered"
        violations = workload.verify_artifact(copy)
        assert violations
        assert violations[0]["check"].startswith("chain.")

    def test_falsified_crossings_caught(self, artifact):
        copy = json.loads(json.dumps(artifact))
        copy["cells"][0]["crossings"]["audit"] = [0, 0, 0]
        checks = {v["check"] for v in workload.verify_artifact(copy)}
        assert "crossings" in checks

    def test_missing_crossing_list_is_a_violation(self, artifact):
        """A cell without one of its recorded lists is reported, not a
        crash, and each message names only the lists its check read."""
        copy = json.loads(json.dumps(artifact))
        del copy["cells"][0]["crossings"]["call_spans"]
        violations = workload.verify_artifact(copy)
        assert [v["check"] for v in violations] \
            == ["trace_matches_call_spans"]
        message = violations[0]["message"]
        assert "trace [" in message and "call_spans []" in message
        assert "redirect_spans" not in message

    def test_suppressed_anomalies_caught(self, artifact):
        copy = json.loads(json.dumps(artifact))
        copy["cells"][0]["log"]["records"].append(
            dict(copy["cells"][0]["log"]["records"][-1], seq=10 ** 6))
        violations = workload.verify_artifact(copy)
        assert violations

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            workload.record_workload(systems=("NotASystem",))

    def test_unknown_algo_rejected(self, artifact):
        copy = json.loads(json.dumps(artifact))
        copy["cells"][0]["log"]["algo"] = "crc32"
        checks = {v["check"] for v in workload.verify_artifact(copy)}
        assert checks == {"chain.algo"}

    @pytest.mark.parametrize("calls", [0, -1])
    def test_nonpositive_calls_rejected(self, calls):
        with pytest.raises(ValueError, match="calls must be >= 1"):
            workload.record_workload(systems=("Proxos",), calls=calls)


def _evil_detail(artifact):
    artifact["cells"][0]["log"]["records"][3]["detail"] = "evil"


def _truncated(artifact):
    del artifact["cells"][0]["log"]["records"][-2:]


def _reordered(artifact):
    records = artifact["cells"][0]["log"]["records"]
    records[1], records[2] = records[2], records[1]


def _false_cell_check(artifact):
    artifact["cells"][1]["checks"]["chain_ok"] = False


def _wrong_schema(artifact):
    artifact["schema"] = "something-else"


class TestCheck:
    """``crossover audit --check`` must reject every tampered or
    self-contradicting artifact, naming what broke."""

    @pytest.mark.parametrize("tamper, named", [
        (_evil_detail, "seq 3"),
        (_truncated, "chain."),
        (_reordered, "chain."),
        (_false_cell_check, "check failed: chain_ok"),
        (_wrong_schema, "schema violation"),
    ], ids=["evil-detail", "truncated", "reordered", "false-check",
            "wrong-schema"])
    def test_tampered_artifact_exits_one(self, artifact, tmp_path, capsys,
                                         tamper, named):
        clean = tmp_path / "clean.json"
        write_artifact(artifact, str(clean))
        assert main(["audit", "--check", str(clean), "--quiet"]) == 0
        copy = json.loads(clean.read_text())
        tamper(copy)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(copy))
        assert main(["audit", "--check", str(bad), "--quiet"]) == 1
        assert named in capsys.readouterr().err


class TestWorkerDeterminism:
    def test_byte_identical_across_worker_counts(self, tmp_path,
                                                 artifact):
        serial = tmp_path / "w1.json"
        write_artifact(artifact, str(serial))
        for workers in (2, 4):
            again = workload.record_workload(
                systems=("Proxos", "HyperShell"), calls=3,
                workers=workers)
            path = tmp_path / f"w{workers}.json"
            write_artifact(again, str(path))
            assert path.read_bytes() == serial.read_bytes(), \
                f"workers={workers} artifact diverged"
