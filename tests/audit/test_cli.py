"""``crossover audit``: record an artifact, check its per-call
crossings against Figure 2, --check it, the ``--trace-out`` exporter
files, and the usage-error exit code."""

import json

import pytest

from repro import telemetry
from repro.analysis import experiments
from repro.audit import workload
from repro.campaign import main
from repro.telemetry import profiler, schema


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """One ``crossover audit`` artifact and one ``--trace-out``
    directory, recorded at different worker counts."""
    root = tmp_path_factory.mktemp("audit")
    plain, traced = root / "plain.json", root / "traced.json"
    trace_dir = root / "trace"
    assert main(["audit", "--workers", "1", "--quiet",
                 "--out", str(plain)]) == 0
    assert main(["audit", "--workers", "2", "--quiet",
                 "--trace-out", str(trace_dir), "--out", str(traced)]) == 0
    return plain, traced, trace_dir


@pytest.fixture(scope="module")
def artifact_path(recording):
    return recording[0]


def _cells(path):
    return json.loads(path.read_text())["cells"]


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

    def test_recording_leaves_no_session_installed(self, recording):
        assert not telemetry.enabled()


class TestCrossings:
    def test_every_cell_carries_the_trace_checks(self, artifact_path):
        for cell in json.loads(artifact_path.read_text())["cells"]:
            assert cell["checks"]["crossings_constant"] is True
            assert cell["checks"]["profile_matches_counters"] is True

    def test_original_crossings_match_figure2(self, artifact_path):
        """The recorded crossings per call equal the Figure-2
        measurement, the span and trace counts agree, and the cell
        carries the paper's count."""
        figure2 = experiments.run_figure2()
        originals = {cell["system"]: cell for cell in _cells(artifact_path)
                     if cell["variant"] == "original"}
        assert set(originals) == set(workload.WORKLOAD_SYSTEMS)
        for name, cell in originals.items():
            assert cell["crossings"]["trace"][-1] \
                == figure2[name]["crossings"]
            assert cell["checks"]["trace_matches_call_spans"] is True
            assert cell["checks"]["crossings_constant"] is True
            assert cell["paper_crossings"] \
                == figure2[name]["paper_crossings"]

    def test_optimized_variant_crosses_less(self, artifact_path):
        per_call = {(cell["system"], cell["variant"]):
                    cell["crossings"]["trace"][-1]
                    for cell in _cells(artifact_path)}
        for system in workload.WORKLOAD_SYSTEMS:
            assert per_call[(system, "optimized")] \
                < per_call[(system, "original")]

    def test_paper_bound_violation_exits_one(self, monkeypatch, capsys):
        """Any span-vs-trace-vs-paper disagreement makes ``crossover
        audit`` exit nonzero.  Forcing the paper's Figure-2 count above
        what the simulator can ever record trips the paper-bound check."""
        from repro.analysis import calibration

        monkeypatch.setitem(calibration.FIGURE2_CROSSINGS, "Proxos", 999)
        assert main(["audit", "--workers", "1", "--quiet"]) == 1
        assert "Proxos/original: check failed: paper_bound_ok" \
            in capsys.readouterr().err


class TestTraceOut:
    def test_exporter_files_validate_and_leave_the_artifact_unchanged(
            self, recording, capsys):
        """With ``--trace-out`` every cell writes its exporter files,
        each validating against its schema, and the artifact is
        byte-identical to one recorded without the flag."""
        plain, traced, trace_dir = recording
        assert traced.read_bytes() == plain.read_bytes()
        for cell in _cells(plain):
            # exactly one system redirect span per NULL call
            assert len(cell["crossings"]["redirect_spans"]) \
                == len(cell["crossings"]["call_spans"]) == cell["calls"]
        assert main(["audit", "--check", str(traced)]) == 0
        assert f"{traced}: ok" in capsys.readouterr().out
        names = {path.name for path in trace_dir.iterdir()}
        prefixes = {f"{system.lower()}_{variant}."
                    for system in workload.WORKLOAD_SYSTEMS
                    for variant in ("original", "optimized")}
        assert names == {prefix + suffix for prefix in prefixes
                         for suffix in ("trace.json", "metrics.json",
                                        "matrix.txt", "stacks.collapsed",
                                        "speedscope.json")}
        for prefix in prefixes:
            assert schema.validate_file(
                "chrome_trace", str(trace_dir / f"{prefix}trace.json")) == []
            assert schema.validate_file(
                "metrics", str(trace_dir / f"{prefix}metrics.json")) == []

    def test_written_stacks_are_the_cell_profile(self, recording):
        """The profile files ``--trace-out`` writes are the cell's
        cost-attribution profile."""
        trace_dir = recording[2]
        session = workload.record_cell("Proxos", False,
                                       workload.DEFAULT_CALLS)[0]
        profile = profiler.profile_session(session)
        assert (trace_dir / "proxos_original.stacks.collapsed").read_text() \
            == profile.collapsed_stacks()
        assert (trace_dir / "proxos_original.speedscope.json").exists()


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
