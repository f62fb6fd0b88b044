"""Exporters, the schema validator and its CLI."""

import json

import pytest

from repro.telemetry import export, schema


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

    @pytest.mark.parametrize("case", ["unknown_schema", "missing_file",
                                      "malformed_json"])
    def test_schema_cli_usage_errors_exit_2(self, case, tmp_path, capsys):
        """Bad input is a one-line usage error (2), never a traceback or
        the invalid-artifact code (1)."""
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        argv = {"unknown_schema": ["nope", str(bad)],
                "missing_file": ["fleet", str(tmp_path / "missing.json")],
                "malformed_json": ["fleet", str(bad)]}[case]
        assert schema.main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1

    def test_schema_cli_usage_lists_every_section(self, capsys):
        assert schema.main([]) == 2
        usage = capsys.readouterr().err
        with open(schema.SCHEMA_PATH) as fh:
            sections = [name for name in json.load(fh) if name != "$defs"]
        assert "paper" in sections
        assert f"<{'|'.join(sections)}>" in usage

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
