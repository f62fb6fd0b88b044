"""Fleet scheduler: calibration properties, determinism, conservation,
hypervisor serialization, churn against a real fleet machine, the
latency bucket rule, and golden digests of whole replays."""

import hashlib
import json

import pytest

from repro.errors import SimulationError
from repro.fleet import traffic
from repro.fleet.scheduler import (
    HOT_WINDOW_CYCLES,
    LATENCY_BOUNDS,
    MECHANISMS,
    FleetScheduler,
    MechanismCosts,
    build_fleet,
    _Window,
    calibrate_costs,
)
from repro.xray.trace import XrayRecorder


def model_costs(mechanism, *, serialized=False, cold=0):
    return MechanismCosts(
        mechanism=mechanism, total_cycles=600, service_cycles=100,
        issue_cycles=250, return_cycles=250, cold_extra_cycles=cold,
        miss_penalty_cycles=5_000, serialized=serialized)


def run_model(costs, *, tenants=20, seed=0, horizon=20_000_000,
              rate_scale=50.0, **kwargs):
    specs = traffic.tenant_plan(tenants, seed, rate_scale=rate_scale)
    return FleetScheduler(specs, costs, seed=seed,
                          horizon_cycles=horizon, **kwargs).run()


@pytest.fixture(scope="module")
def calibrated():
    return {m: calibrate_costs(m) for m in MECHANISMS}


class TestCalibration:
    def test_baseline_is_serialized_and_slowest(self, calibrated):
        baseline = calibrated["baseline"]
        assert baseline.serialized
        for other in ("world_call", "switchless"):
            assert not calibrated[other].serialized
            assert baseline.total_cycles > calibrated[other].total_cycles

    def test_switchless_is_fastest_hot_but_pays_cold_wakeup(
            self, calibrated):
        switchless = calibrated["switchless"]
        assert switchless.total_cycles < calibrated["world_call"].total_cycles
        assert switchless.cold_extra_cycles > 0

    def test_world_call_miss_penalty_measured(self, calibrated):
        assert calibrated["world_call"].miss_penalty_cycles > 0

    def test_transport_halves_sum_to_total_minus_service(self, calibrated):
        for costs in calibrated.values():
            transport = max(2, costs.total_cycles - costs.service_cycles)
            assert costs.issue_cycles + costs.return_cycles == transport

    def test_unknown_mechanism_raises(self):
        with pytest.raises(SimulationError):
            calibrate_costs("quantum_tunnel")


class TestSchedulerModel:
    def test_deterministic(self):
        costs = model_costs("world_call")
        assert run_model(costs, seed=3) == run_model(costs, seed=3)

    def test_interleave_widths_commit_identical_results(self):
        costs = model_costs("world_call")
        runs = [run_model(costs, interleave=width) for width in (1, 2, 4)]
        # The recorded knob differs; every observable result must not.
        stripped = [{k: v for k, v in run.items() if k != "interleave"}
                    for run in runs]
        assert stripped[0] == stripped[1] == stripped[2]

    def test_conservation_and_full_drain(self):
        costs = model_costs("world_call")
        specs = traffic.tenant_plan(20, 0, rate_scale=50.0)
        sched = FleetScheduler(specs, costs, seed=0,
                               horizon_cycles=20_000_000)
        result = sched.run()
        assert result["requests"] == result["completed"]
        assert sched.backlog == 0
        assert sched.free_cores == sched.cores_total
        assert result["requests"] > 0

    def test_baseline_serializes_on_hypervisor(self):
        baseline = run_model(model_costs("baseline", serialized=True))
        world_call = run_model(model_costs("world_call"))
        assert baseline["hv"]["busy_cycles"] > 0
        assert baseline["hv"]["wait_cycles"] > 0
        assert world_call["hv"]["busy_cycles"] == 0
        assert world_call["hv"]["wait_cycles"] == 0
        # Same stage costs, so any extra latency is pure queueing on
        # the serialized hypervisor (mean is exact; p99 is bucketed).
        assert baseline["latency"]["mean"] > world_call["latency"]["mean"]

    def test_switchless_hot_cold_split(self):
        costs = model_costs("switchless", cold=2_400)
        # Sparse traffic: gaps far beyond the spin window, all cold.
        sparse = run_model(costs, rate_scale=1.0, horizon=60_000_000)
        assert sparse["calls"]["cold"] > 0
        assert (sparse["calls"]["hot"] + sparse["calls"]["cold"]
                == sparse["calls"]["total"])
        # Dense traffic: gaps well inside the window, mostly hot.
        dense = run_model(costs, rate_scale=200.0)
        assert dense["calls"]["hot"] > dense["calls"]["cold"]
        assert traffic.tenant_plan(1, 0)[0].mean_gap_cycles \
            > HOT_WINDOW_CYCLES

    def test_windows_contiguous_and_shaped(self):
        result = run_model(model_costs("world_call"))
        windows = result["windows"]
        assert [w["index"] for w in windows] == list(range(len(windows)))
        assert result["window_cycles"] == 20_000_000 // 32
        total_completed = 0
        for window in windows:
            assert window["cycles"] == result["window_cycles"]
            assert window["start_cycles"] == \
                window["index"] * result["window_cycles"]
            hist = window["histograms"]["fleet.latency.cycles"]
            assert hist["count"] == sum(hist["counts"]) + hist["overflow"]
            total_completed += window["counters"]["fleet.completed"]
        assert total_completed == result["completed"]

    def test_bad_arguments_raise(self):
        costs = model_costs("world_call")
        specs = traffic.tenant_plan(2, 0)
        with pytest.raises(SimulationError):
            FleetScheduler(specs, costs, horizon_cycles=0)
        with pytest.raises(SimulationError):
            FleetScheduler(specs, costs, horizon_cycles=100, interleave=0)
        with pytest.raises(SimulationError):
            FleetScheduler(specs, costs, horizon_cycles=100, cores=0)
        with pytest.raises(SimulationError):
            FleetScheduler(specs, costs, horizon_cycles=100, churn_every=-1)
        with pytest.raises(SimulationError):
            FleetScheduler(specs, costs, horizon_cycles=100,
                           churn_every=10, fleet=None)


class TestLatencyBuckets:
    """A latency lands in the first bucket whose bound is >= it; past
    the last bound it is overflow (``count - sum(counts)``)."""

    @staticmethod
    def bucket_of(value):
        window = _Window()
        window.observe(value, exemplar=f"t0#{value}")
        assert window.count == 1 and window.sum == value
        overflow = window.count - sum(window.counts)
        (bucket,) = window.exemplars          # same index as the count
        if overflow:
            assert bucket == len(LATENCY_BOUNDS)
            return "overflow"
        assert window.counts[bucket] == 1
        return bucket

    def test_zero_lands_in_first_bucket(self):
        assert self.bucket_of(0) == 0

    def test_each_bound_lands_in_its_own_bucket(self):
        for i, bound in enumerate(LATENCY_BOUNDS):
            assert self.bucket_of(bound) == i, bound

    def test_one_past_each_bound_lands_in_the_next(self):
        last = len(LATENCY_BOUNDS) - 1
        for i, bound in enumerate(LATENCY_BOUNDS):
            expected = i + 1 if i < last else "overflow"
            assert self.bucket_of(bound + 1) == expected, bound

    def test_above_last_bound_is_overflow(self):
        assert self.bucket_of(10 * LATENCY_BOUNDS[-1]) == "overflow"


#: sha256 of ``json.dumps(result, sort_keys=True)`` for the golden
#: replays below, recorded before the event loop committed one event
#: per heap pop.  A changed digest means a changed commit order or a
#: changed counter; re-record only for an intended model change.
GOLDEN_DIGESTS = {
    "baseline":
        "c2a05dee8795ee8f028bf048807dfb8bf36de82132ae1e60e1c421418104b4cd",
    "world_call":
        "bc70dbc5853b28f33e852b3464bfe4acbf5112378bb6b30ccc3c98507f101e23",
    "switchless":
        "6a7dc152a669b2ee3b8e5d21c2c25ebb2d352cbb8e27f15c6820cc1c4b06e016",
    "baseline+xray":
        "67b971755cd617af860d8b3fac7ac3a7db7e2758e553be2348c1e82a31a9330b",
}


class TestGoldenReplay:
    """A 50-tenant fleet on a real sharded machine, churning every 9th
    completion on 4 cores, with fixed stage costs per mechanism so the
    digests pin the scheduler rather than the calibrated cost model."""

    @staticmethod
    def replay(mechanism, xray=False):
        costs = MechanismCosts(
            mechanism=mechanism, total_cycles=600, service_cycles=100,
            issue_cycles=250, return_cycles=250,
            cold_extra_cycles=2_400 if mechanism == "switchless" else 0,
            miss_penalty_cycles=5_000,
            serialized=(mechanism == "baseline"), marshal_cycles=90)
        specs = traffic.tenant_plan(50, 5, rate_scale=20.0)
        fleet = build_fleet(specs, shards=4)
        try:
            recorder = XrayRecorder(seed=5, sample_every=4) if xray else None
            return FleetScheduler(specs, costs, seed=5,
                                  horizon_cycles=8_000_000, cores=4,
                                  churn_every=9, fleet=fleet,
                                  xray=recorder).run()
        finally:
            fleet.machine.close()

    @staticmethod
    def digest(result):
        return hashlib.sha256(
            json.dumps(result, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_dormant_replay_digest(self, mechanism):
        result = self.replay(mechanism)
        assert result["revocations"] > 0
        assert result["completed"] == result["requests"]
        assert self.digest(result) == GOLDEN_DIGESTS[mechanism]

    def test_traced_replay_digest(self):
        result = self.replay("baseline", xray=True)
        assert result["xray"]["conservation"]["ok"]
        assert self.digest(result) == GOLDEN_DIGESTS["baseline+xray"]


class TestChurn:
    def test_churn_revokes_real_worlds_and_reprices_next_call(self):
        specs = traffic.tenant_plan(4, 0, rate_scale=100.0)
        fleet = build_fleet(specs, shards=2)
        before = {t.spec.index: t.callee_wid for t in fleet.tenants}
        costs = model_costs("world_call")
        result = FleetScheduler(specs, costs, seed=0,
                                horizon_cycles=20_000_000,
                                churn_every=5, fleet=fleet).run()
        assert result["revocations"] == fleet.revocations > 0
        after = {t.spec.index: t.callee_wid for t in fleet.tenants}
        assert any(after[i] != before[i] for i in before)
        assert all(after[i] >= before[i] for i in before)   # never reused
        assert sum(w["counters"]["fleet.revocations"]
                   for w in result["windows"]) == result["revocations"]
        shards = result["shards"]
        assert [s["shard"] for s in shards] == [0, 1]
        assert sum(s["worlds"] for s in shards) == 2 * len(specs)
