"""Report CLI tests: every section renders and carries paper values."""

import pytest

from repro.analysis import report


class TestSections:
    def test_table1_section(self):
        out = report.section_table1()
        assert "Xen-Blanket" in out and "6X" in out
        assert out.count("\n") >= 12

    def test_figure1_section(self):
        out = report.section_figure1()
        assert "16 direct" in out and "26 indirect" in out

    def test_table3_section(self):
        out = report.section_table3()
        assert "U(vm1) <-> K(vm2)" in out
        assert "-/4/2/1" in out     # the paper's reference cells

    def test_table7_section(self):
        out = report.section_table7()
        assert "getppid" in out
        assert "1847" in out
        assert "+33" in out

    def test_figure4_section(self):
        out = report.section_figure4()
        assert "2 exit-free EPT switches" in out
        assert "vmfunc_ept_switch" in out

    def test_figure2_section(self):
        out = report.section_figure2()
        for system in ("Proxos", "HyperShell", "Tahoma", "ShadowContext"):
            assert system in out


class TestCLI:
    def test_quick_mode(self, capsys):
        assert report.main(["--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 3" in out
        assert "Table 7" in out
        assert "Table 5" not in out     # slow section skipped

    def test_single_section(self, capsys):
        assert report.main(["--section", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 3" not in out

    def test_unknown_section_rejected(self):
        with pytest.raises(SystemExit):
            report.main(["--section", "table99"])

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, workers, capsys):
        with pytest.raises(SystemExit) as stop:
            report.main(["--workers", workers, "--section", "table1"])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert "--workers" in captured.err
        assert "Table 1" not in captured.out

    def test_output_identical_at_any_worker_count(self, capsys):
        outputs = []
        for workers in ("1", "2"):
            assert report.main(["--section", "table7",
                                "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "Table 7" in outputs[0]

    def test_parallel_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as stop:
            report.main(["--parallel", "--section", "table1"])
        assert stop.value.code == 2

    def test_markdown_sweeps_through_the_worker_pool(self, monkeypatch,
                                                     capsys):
        from repro.analysis import parallel

        seen = []
        real = parallel.run_table7

        def spy(*args, **kwargs):
            seen.append(kwargs.get("workers"))
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel, "run_table7", spy)
        assert report.main(["--markdown", "--quick", "--workers", "1"]) == 0
        assert seen == [1]
        assert "## Table 7" in capsys.readouterr().out

    def test_build_report_defaults_to_all_names(self):
        assert set(report.SECTIONS) >= set(report.QUICK_SECTIONS)


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

    def test_section_renders(self):
        from repro.analysis.figure3 import section_figure3

        out = section_figure3()
        assert "CPU-2" in out and "before" in out and "after" in out


class TestMarkdown:
    def test_markdown_quick(self, capsys):
        assert report.main(["--markdown", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "## Table 1" in out
        assert "## Table 7" in out
        assert "| getppid | 1847/1847" in out
        assert "## Table 5" not in out

    def test_md_table_shapes(self):
        from repro.analysis.markdown import md_table

        out = md_table(["a", "b"], [[1, 2.5], ["x", 123.456]])
        lines = out.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "| 1 | 2.50 |" in out
        assert "123.5" in out


class TestFigure5:
    def test_datapath_state(self):
        from repro.analysis.figure5 import run_figure5

        data = run_figure5(worlds=3, rounds=4)
        assert len(data["entries"]) == 3
        # Each world misses both caches exactly once (cold), then hits.
        assert data["wt_misses"] + data["iwt_misses"] == \
            data["misses_serviced"]
        assert data["wt_hits"] > data["wt_misses"]

    def test_section_renders(self):
        from repro.analysis.figure5 import section_figure5

        out = section_figure5()
        assert "WID" in out and "EPTP" in out and "PTP" in out
        assert "misses serviced" in out
