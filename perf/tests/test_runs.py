"""End-to-end runs of the benchmark (each in fresh subprocesses)."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import golden
import run

DORMANT = ("tables", "micro", "fleet", "fleet_traced")
HOOKS = ("telemetry.hook.calls", "audit.hook.calls", "observatory.hook.calls")


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_micro_one_round_smoke(tmp_path, capsys):
    start = time.monotonic()
    code = run.main(["--workload", "micro", "--seed", "0", "--rounds", "1",
                     "--out", str(tmp_path / "r.json")])
    elapsed = time.monotonic() - start
    result = last_json(capsys.readouterr().out)
    assert code == 0 and elapsed < 15
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 20_000
    assert set(result["metrics"]) == {
        m["name"] for m in run.load_benchmark()["end_to_end"]}
    saved = json.loads((tmp_path / "r.json").read_text())["runs"][0]
    assert saved["metrics"]["modeled_world_call_cycles"]["value"] == 596
    assert saved["metrics"]["modeled_crossvm_cycles"]["value"] == 1646


def test_corrupted_golden_fails_the_operations(tmp_path, capsys,
                                               monkeypatch):
    corrupted = golden.load()
    for key in corrupted["micro"]["*"]:
        corrupted["micro"]["*"][key] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(corrupted))
    monkeypatch.setattr(golden, "GOLDEN_PATH", path)
    code = run.main(["--workload", "micro", "--seed", "0", "--rounds", "1",
                     "--out", str(tmp_path / "r.json")])
    result = last_json(capsys.readouterr().out)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 20_000


@pytest.mark.parametrize("workload", DORMANT)
def test_traced_dormant_workload(workload):
    child = run.run_child(workload, 0, "trace")
    layers = child["layers"]
    assert all(layers[hook] == 0 for hook in HOOKS), layers
    attempted, failed, problems = run.check(
        child["rounds"], golden.expected(golden.load(), workload, 0))
    assert attempted > 0 and failed == 0, problems
    if workload.startswith("fleet"):
        # 1000 * 1001 per build_fleet plus 6 per calibration machine,
        # for each of the three mechanisms.
        assert layers["hw.eptp_set.calls"] == 3 * (1000 * 1001 + 6)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(run.PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "micro", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
