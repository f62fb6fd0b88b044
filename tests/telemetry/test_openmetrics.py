"""Unit tests for the standalone OpenMetrics text exporter."""

from repro.telemetry.export import render_openmetrics
from repro.telemetry.registry import MetricsRegistry


def _lines(text):
    assert text.endswith("\n")
    return text[:-1].split("\n")


class TestRenderOpenmetrics:
    def test_counters_get_total_suffix_and_type_line(self):
        reg = MetricsRegistry()
        reg.counter("core.world_calls", caller_wid=1, callee_wid=2).inc(7)
        lines = _lines(render_openmetrics(reg.snapshot()))
        assert "# TYPE core_world_calls counter" in lines
        assert ("core_world_calls_total"
                '{callee_wid="2",caller_wid="1"} 7') in lines
        assert lines[-1] == "# EOF"

    def test_gauges_render_plain(self):
        reg = MetricsRegistry()
        reg.gauge("switchless.workers").set(3)
        lines = _lines(render_openmetrics(reg.snapshot()))
        assert "# TYPE switchless_workers gauge" in lines
        assert "switchless_workers 3" in lines

    def test_label_values_are_escaped(self):
        snapshot = {
            "counters": {'odd{k=a"b\\c}': 1},
            "gauges": {}, "histograms": {},
        }
        text = render_openmetrics(snapshot)
        assert 'k="a\\"b\\\\c"' in text

    def test_names_sanitized_to_openmetrics_charset(self):
        reg = MetricsRegistry()
        reg.counter("hw.world_call", cpu=0).inc()
        text = render_openmetrics(reg.snapshot())
        assert "hw_world_call_total" in text
        assert "hw.world_call" not in text

    def test_labels_in_sorted_order(self):
        reg = MetricsRegistry()
        reg.counter("m", zebra=1, alpha=2).inc()
        lines = _lines(render_openmetrics(reg.snapshot()))
        row = next(line for line in lines if line.startswith("m_total"))
        assert row.index('alpha="2"') < row.index('zebra="1"')

    def test_families_emitted_sorted_with_single_type_line(self):
        reg = MetricsRegistry()
        reg.counter("b.family", x=1).inc()
        reg.counter("b.family", x=2).inc()
        reg.counter("a.family").inc()
        lines = _lines(render_openmetrics(reg.snapshot()))
        type_lines = [line for line in lines
                      if line.startswith("# TYPE")]
        assert type_lines == ["# TYPE a_family counter",
                              "# TYPE b_family counter"]

    def test_works_without_a_session(self):
        # The exporter is a pure function of the snapshot dict — the
        # observatory and scrape endpoints share it with no live
        # telemetry session installed.
        text = render_openmetrics(
            {"counters": {}, "gauges": {}, "histograms": {}})
        assert text == "# EOF\n"
