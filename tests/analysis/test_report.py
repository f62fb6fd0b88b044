"""The ``crossover paper`` campaign: every section renders from the
recorded rows alone, the artifact does not depend on the pool's worker
count, and the markdown report carries the same tables."""

import json

import pytest

from repro.analysis import report
from repro.campaign import main


@pytest.fixture(scope="module")
def artifact(paper_recording):
    return json.loads(paper_recording[1].read_text())


@pytest.fixture(scope="module")
def text(artifact):
    return report.render(artifact)


class TestCLI:
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, workers, capsys):
        assert main(["paper", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert "--workers" in captured.err
        assert "Table 1" not in captured.out

    def test_output_identical_at_any_worker_count(self, paper_recording):
        _, serial, pooled = paper_recording
        assert serial.read_bytes() == pooled.read_bytes()

    def test_parallel_flag_is_gone(self, capsys):
        """The report-only flags stay gone: each is a usage error."""
        for flag in (["--parallel"], ["--quick"], ["--section", "table1"],
                     ["--telemetry", "out"], ["--hotspots", "5"]):
            assert main(["paper", *flag]) == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestRecording:
    def test_live_render_equals_reread_render(self, paper_recording,
                                              artifact):
        stdout, serial, _ = paper_recording
        assert stdout == f"{report.render(artifact)}\nwrote {serial}\n"

    def test_every_section_recorded_and_every_claim_holds(self, artifact):
        assert set(artifact["rows"]) == set(report.SECTIONS)
        assert len(artifact["summary"]) == 19
        assert all(artifact["summary"].values())
        assert report.CAMPAIGN.failures(artifact) == []

    def test_missing_row_fails_coverage(self, artifact):
        broken = json.loads(json.dumps(artifact))
        del broken["rows"]["table7"]["getppid"]
        assert report.CAMPAIGN.failures(broken) == [
            "rows do not cover every table row of the paper"]


class TestSections:
    def test_sections_print_in_report_order(self, text):
        titles = [line for line in text.splitlines()
                  if line.startswith(("Table ", "Figure "))]
        assert [title.split(" —")[0] for title in titles] == [
            "Table 1", "Figure 1", "Table 3", "Figure 2", "Figure 3",
            "Figure 5", "Table 4", "Table 5", "Table 6", "Table 7",
            "Figure 4"]

    def test_table1_section(self, artifact):
        out = report.section_table1(artifact["rows"]["table1"])
        assert "Xen-Blanket" in out and "6X" in out
        assert out.count("\n") >= 12

    def test_figure1_section(self, artifact):
        out = report.section_figure1(artifact["rows"]["figure1"])
        assert "16 direct" in out and "26 indirect" in out

    def test_table3_section(self, artifact):
        out = report.section_table3(artifact["rows"]["table3"])
        assert "U(vm1) <-> K(vm2)" in out
        assert "-/4/2/1" in out     # the paper's reference cells

    def test_table6_rows_in_size_order(self, artifact):
        out = report.section_table6(artifact["rows"]["table6"])
        sizes = [line.split()[0] for line in out.splitlines()[4:]]
        assert sizes == ["128", "256", "512", "1024"]

    def test_table7_section(self, artifact):
        out = report.section_table7(artifact["rows"]["table7"])
        assert "getppid" in out
        assert "1847" in out
        assert "+33" in out

    def test_figure4_section(self, artifact):
        out = report.section_figure4(artifact["rows"]["figure4"])
        assert "2 exit-free EPT switches" in out
        assert "vmfunc_ept_switch" in out

    def test_figure2_section(self, artifact):
        out = report.section_figure2(artifact["rows"]["figure2"])
        for system in ("Proxos", "HyperShell", "Tahoma", "ShadowContext"):
            assert system in out


class TestFigure3:
    def test_only_the_calling_cpu_switches(self):
        from repro.analysis.figure3 import run_figure3

        data = run_figure3()
        idx = data["calling_cpu"]
        assert data["before"][idx] == "U(vm1)"
        assert data["during"][idx] == "K(vm2)"
        assert data["after"][idx] == "U(vm1)"
        for i in range(4):
            if i != idx:
                assert data["before"][i] == data["during"][i] == \
                    data["after"][i]

    def test_section_renders(self, artifact):
        out = report.section_figure3(artifact["rows"]["figure3"])
        assert "CPU-2" in out and "before" in out and "after" in out


class TestMarkdown:
    def test_markdown_has_every_text_table(self, artifact, text):
        markdown = report.render_markdown(artifact)
        lines = text.splitlines()
        titles = [line for line, under in zip(lines, lines[1:])
                  if under and set(under) == {"="}]
        assert len(titles) == 7
        for title in titles:
            assert f"## {title}" in markdown
        assert "| getppid | 1847 | 1847 | 1880 |" in markdown
        assert "| U(vm1) | U(vm2) | indirect(4) |" in markdown  # Figure 1
        assert "```text\nU(vm1)" in markdown   # a Figure-2 diagram

    def test_markdown_flag_writes_the_report(self, artifact, monkeypatch,
                                             tmp_path, capsys):
        monkeypatch.setattr(report, "record", lambda workers: artifact)
        path = tmp_path / "paper.md"
        assert main(["paper", "--markdown", str(path), "--quiet"]) == 0
        assert path.read_text() == report.render_markdown(artifact)
        assert capsys.readouterr().out == ""

    def test_md_table_shapes(self):
        from repro.analysis.markdown import md_table

        out = md_table(["a", "b"], [[1, 2.5], ["x", 123.456]])
        lines = out.splitlines()
        assert lines[1] == "| a | b |"
        assert lines[2] == "|---|---|"
        assert "| 1 | 2.50 |" in out
        assert "123.5" in out
        assert md_table(["a"], [], "T").startswith("## T\n\n| a |")


class TestFigure5:
    def test_datapath_state(self):
        from repro.analysis.figure5 import run_figure5

        data = run_figure5(worlds=3, rounds=4)
        assert len(data["entries"]) == 3
        # Each world misses both caches exactly once (cold), then hits.
        assert data["wt_misses"] + data["iwt_misses"] == \
            data["misses_serviced"]
        assert data["wt_hits"] > data["wt_misses"]

    def test_section_renders(self, artifact):
        out = report.section_figure5(artifact["rows"]["figure5"])
        assert "WID" in out and "EPTP" in out and "PTP" in out
        assert "misses serviced" in out
