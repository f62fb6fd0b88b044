"""Exporters, the schema validator and its CLI, and the exporter files
``crossover audit --trace-out`` writes."""

import json

import pytest

from repro import telemetry
from repro.analysis import experiments
from repro.audit import workload
from repro.campaign import main
from repro.telemetry import export, profiler, schema


@pytest.fixture
def session(traced_session):
    """One recorded Proxos-original cell shared by the export tests."""
    return traced_session("Proxos")


class TestChromeTrace:
    def test_round_trips_through_json(self, session):
        doc = export.chrome_trace(session)
        assert json.loads(json.dumps(doc)) == doc

    def test_event_shapes(self, session):
        doc = export.chrome_trace(session)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "i", "M"} <= phases
        completes = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any("modeled_cycles" in e["args"] for e in completes)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)
        assert all(e["ts"] >= 0 for e in completes + instants)
        errors = schema.validate(doc, schema.load_schema("chrome_trace"))
        assert errors == []

    def test_matrix_rows_cover_trace(self, session):
        rows = export.crossing_matrix(session)
        assert rows == sorted(rows)
        family = session.metrics.family("trace.matrix").values()
        assert sum(c for _, _, _, c in rows) \
            == sum(counter.value for counter in family)
        assert "total boundary events" in export.crossing_matrix_text(session)

    def test_metrics_snapshot_schema(self, session):
        snap = export.metrics_snapshot(session)
        assert schema.validate(snap, schema.load_schema("metrics")) == []


class TestSchemaValidator:
    def test_rejects_wrong_types(self):
        errors = schema.validate({"label": 3}, schema.load_schema("metrics"))
        assert any("label" in e for e in errors)
        assert any("missing required" in e for e in errors)

    def test_enum_and_minimum(self):
        s = {"type": "object",
             "properties": {"ph": {"enum": ["X"]},
                            "n": {"type": "integer", "minimum": 0}}}
        assert schema.validate({"ph": "X", "n": 0}, s) == []
        errors = schema.validate({"ph": "q", "n": -1}, s)
        assert len(errors) == 2

    def test_schema_cli(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"label": "x", "counters": {},
                                    "gauges": {}, "histograms": {}}))
        assert schema.main(["metrics", str(path)]) == 0
        path.write_text(json.dumps({"label": "x"}))
        assert schema.main(["metrics", str(path)]) == 1

    def test_ref_applies_alongside_siblings(self):
        s = {"$defs": {"cell": {"type": "object", "required": ["a"]}},
             "type": "object",
             "additionalProperties": {"$ref": "#/$defs/cell",
                                      "required": ["b"]}}
        assert schema.validate({"x": {"a": 1, "b": 2}}, s) == []
        errors = schema.validate({"x": {}}, s)
        assert any("'a'" in e for e in errors)
        assert any("'b'" in e for e in errors)

    @pytest.mark.parametrize("ref", ["#/$defs/missing", "#/other/cell",
                                     "other.json#/$defs/cell"])
    def test_unresolvable_ref_is_an_error(self, ref):
        s = {"$defs": {"cell": {"type": "object"}}, "$ref": ref}
        errors = schema.validate({}, s)
        assert errors and "unresolvable $ref" in errors[0]


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


def _cells(path):
    return json.loads(path.read_text())["cells"]


class TestCli:
    def test_quick_mode_validates_itself(self, recording, capsys):
        """A full audit recording is small enough to stand in for a
        quick mode: with ``--trace-out`` it writes every cell's exporter
        files, each validating against its schema, and the artifact is
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

    def test_crossings_match_figure2(self, recording):
        """The recorded crossings per call equal the Figure-2
        measurement, the span and trace counts agree, and the cell
        carries the paper's count."""
        figure2 = experiments.run_figure2()
        originals = {cell["system"]: cell for cell in _cells(recording[0])
                     if cell["variant"] == "original"}
        assert set(originals) == set(workload.WORKLOAD_SYSTEMS)
        for name, cell in originals.items():
            assert cell["crossings"]["trace"][-1] \
                == figure2[name]["crossings"]
            assert cell["checks"]["trace_matches_call_spans"] is True
            assert cell["checks"]["crossings_constant"] is True
            assert cell["paper_crossings"] \
                == figure2[name]["paper_crossings"]

    def test_quick_mode_fails_on_crosscheck_mismatch(self, monkeypatch,
                                                     capsys):
        """Any span-vs-trace-vs-paper disagreement makes ``crossover
        audit`` exit nonzero.  Forcing the paper's Figure-2 count above
        what the simulator can ever record trips the paper-bound check."""
        from repro.analysis import calibration

        monkeypatch.setitem(calibration.FIGURE2_CROSSINGS, "Proxos", 999)
        assert main(["audit", "--workers", "1", "--quiet"]) == 1
        assert "Proxos/original: check failed: paper_bound_ok" \
            in capsys.readouterr().err

    def test_profile_flag_prints_hotspots(self, recording, traced_session):
        """The profile files ``--trace-out`` writes are the cell's
        cost-attribution profile, whose hotspot table stays printable."""
        trace_dir = recording[2]
        profile = profiler.profile_session(
            traced_session("Proxos", calls=workload.DEFAULT_CALLS))
        assert (trace_dir / "proxos_original.stacks.collapsed").read_text() \
            == profile.collapsed_stacks()
        assert (trace_dir / "proxos_original.speedscope.json").exists()
        assert profile.hotspot_table(3).startswith(
            "Top 3 stacks by modeled cycles")

    def test_optimized_variant_crosses_less(self, recording):
        per_call = {(cell["system"], cell["variant"]):
                    cell["crossings"]["trace"][-1]
                    for cell in _cells(recording[0])}
        for system in workload.WORKLOAD_SYSTEMS:
            assert per_call[(system, "optimized")] \
                < per_call[(system, "original")]

    def test_no_session_leaks(self, recording):
        assert not telemetry.enabled()
