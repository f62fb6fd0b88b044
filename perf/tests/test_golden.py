"""Provenance of the golden digests: the fleet cells match the
checked-in campaign artifacts."""

import json
from pathlib import Path

import pytest

import golden
from workloads import MECHANISMS

REPO = Path(__file__).resolve().parents[2]


def artifact(name):
    with open(REPO / name, encoding="utf-8") as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def recorded():
    return golden.load()


def test_fleet_traced_cells_equal_xray_pr10(recorded):
    cells = artifact("XRAY_PR10.json")["cells"]
    for mechanism in MECHANISMS:
        cell = cells[f"{mechanism}@1000"]
        assert golden.digest(cell) == recorded["fleet_traced"]["0"][mechanism]
        assert golden.digest(cell["costs"]) == \
            recorded["fleet"]["*"][f"costs/{mechanism}"]


def test_fleet_cells_equal_fleet_pr9_except_marshal_cycles(recorded):
    # FLEET_PR9.json predates the attribution-only costs.marshal_cycles
    # field; with it filled in from the same calibration, the cells are
    # identical.
    pr9 = artifact("FLEET_PR9.json")["cells"]
    pr10 = artifact("XRAY_PR10.json")["cells"]
    for mechanism in MECHANISMS:
        cell = pr9[f"{mechanism}@1000"]
        assert "marshal_cycles" not in cell["costs"]
        assert golden.digest(cell) != recorded["fleet"]["0"][mechanism]
        cell["costs"]["marshal_cycles"] = \
            pr10[f"{mechanism}@1000"]["costs"]["marshal_cycles"]
        assert golden.digest(cell) == recorded["fleet"]["0"][mechanism]


def test_observers_leave_table_outputs_identical(recorded):
    assert recorded["observed"] == recorded["tables"]
    assert len(recorded["tables"]["*"]) == 15


def test_digest_is_canonical():
    assert golden.digest({"b": (1, 2.5), "a": {2: None}}) == \
        golden.digest(json.loads('{"a": {"2": null}, "b": [1, 2.5]}'))
