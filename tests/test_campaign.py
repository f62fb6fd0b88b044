"""The campaign harness: one ``crossover <campaign>`` CLI whose verify
path (schema, then the campaign's failures) and exit-code policy are
shared by faults, switchless, fleet, audit, observatory and paper."""

import json

import pytest

from repro.campaign import CAMPAIGNS, build_parser, main

#: Small runs whose claims all hold, and one boolean claim to flip, by
#: case: each campaign at its own smoke shape, plus the fleet campaign at
#: the x-ray smoke shape, where a trace-derived claim is flipped.
SMOKE = {
    "faults": ("faults", ["--systems", "ShadowContext", "--sites",
                          "hw.entry_revoked", "--ops", "2"],
               ("crosscheck", "ok")),
    "switchless": ("switchless", ["--iterations", "1"],
                   ("summary", "worker_sweep_deterministic")),
    "fleet": ("fleet", ["--tenants", "4,12", "--horizon-ms", "2",
                        "--rate-scale", "80", "--churn-every", "50"],
              ("summary", "lane_identical")),
    "xray": ("fleet", ["--tenants", "10,50", "--horizon-ms", "5",
                       "--rate-scale", "16", "--churn-every", "100"],
             ("summary", "baseline_tail_is_hv_serialization")),
    "audit": ("audit", [], ("summary", "crosscheck_ok")),
    "observatory": ("observatory", [], ("summary", "crosscheck_ok")),
    "paper": ("paper", [], ("summary", "table7_register_ops_exact")),
}


def test_one_subcommand_per_campaign():
    assert {campaign for campaign, _, _ in SMOKE.values()} \
        == set(CAMPAIGNS)
    assert main(["--help"]) == 0
    assert main([]) == 2
    assert main(["nope"]) == 2


@pytest.mark.parametrize("case", sorted(SMOKE))
def test_workers_below_one_is_usage_error(case, capsys):
    name = SMOKE[case][0]
    for workers in ("0", "-2"):
        assert main([name, "--workers", workers, "--quiet"]) == 2
        assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(SMOKE))
def test_check_roundtrip_and_flipped_claim(case, tmp_path, capsys):
    name, argv, (section, claim) = SMOKE[case]
    path = tmp_path / f"{case}.json"
    assert main([name, *argv, "--workers", "1", "--quiet",
                 "--out", str(path)]) == 0
    assert main([name, "--check", str(path)]) == 0
    assert f"{path}: ok" in capsys.readouterr().out

    artifact = json.loads(path.read_text())
    assert artifact[section][claim] is True
    artifact[section][claim] = False
    path.write_text(json.dumps(artifact))
    assert main([name, "--check", str(path), "--quiet"]) == 1
    flagged = claim if section == "summary" else section
    assert flagged in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(SMOKE))
def test_check_rejects_missing_and_malformed_files(case, tmp_path):
    name = SMOKE[case][0]
    assert main([name, "--check", str(tmp_path / "missing.json")]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main([name, "--check", str(garbage)]) == 2
    wrong_shape = tmp_path / "list.json"
    wrong_shape.write_text("[]")
    assert main([name, "--check", str(wrong_shape), "--quiet"]) == 1


def test_tampered_paper_row_fails_check(paper_recording, tmp_path, capsys):
    """A recorded row that contradicts its claim fails ``--check``."""
    artifact = json.loads(paper_recording[1].read_text())
    artifact["rows"]["table7"]["getppid"]["crossover"] += 1
    path = tmp_path / "paper-tampered.json"
    path.write_text(json.dumps(artifact))
    assert main(["paper", "--check", str(path), "--quiet"]) == 1
    assert "table7_register_ops_exact" in capsys.readouterr().err


def test_flag_names_are_the_campaigns_former_flags():
    former = {
        "--seed", "--workers", "--out", "--quiet", "--check",
        "--systems", "--sites", "--ops", "--disable-recovery",
        "--iterations", "--tenants", "--horizon-ms", "--churn-every",
        "--cores", "--rate-scale", "--slo", "--strict", "--trace-out",
        "--html", "--openmetrics", "--markdown"}
    subparsers = next(action for action in build_parser()._actions
                      if action.dest == "campaign").choices
    flags = {option for sub in subparsers.values()
             for action in sub._actions for option in action.option_strings
             if option.startswith("--") and option != "--help"}
    assert flags == former


def test_only_seeded_campaigns_take_a_seed():
    subparsers = next(action for action in build_parser()._actions
                      if action.dest == "campaign").choices
    seeded = {name for name, sub in subparsers.items()
              if any("--seed" in action.option_strings
                     for action in sub._actions)}
    assert seeded == {"faults", "switchless", "fleet"}
    assert main(["audit", "--seed", "1"]) == 2
