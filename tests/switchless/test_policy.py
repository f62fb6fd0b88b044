"""Adaptive-policy tests: flip determinism per seed, the flip and
flip-back rules, clock-domain re-anchoring, and the decision log."""

from repro.switchless import AdaptivePolicy, SiteState
from repro.switchless.campaign import run_switchless_cell


SITE = ("world", 1, 2)


def _drive(policy, arrivals):
    """Feed (cycles, service_cycles, cold) call arrivals through."""
    for cycles, service, cold in arrivals:
        policy.decide(SITE, cycles)
        policy.note_service(SITE, service, cold)


class TestFlipRules:
    def test_hot_site_flips_to_switchless(self):
        policy = AdaptivePolicy()
        _drive(policy, [(i * 10_000, 5_000, False) for i in range(110)])
        assert policy.mechanism_of(SITE) == "switchless"
        assert policy.flips
        assert policy.flips[0][1] == "switchless"

    def test_sparse_site_stays_world_call(self):
        policy = AdaptivePolicy()
        _drive(policy, [(i * 2_000_000, 5_000, False) for i in range(50)])
        assert policy.mechanism_of(SITE) == "world_call"
        assert not policy.flips

    def test_saturated_ring_refuses_flip(self):
        """High call rate but the worker can't keep up (occupancy over
        the ceiling): flipping would just queue calls."""
        policy = AdaptivePolicy()
        _drive(policy, [(i * 10_000, 100_000, False) for i in range(110)])
        assert policy.mechanism_of(SITE) == "world_call"

    def test_cold_heavy_site_flips_back(self):
        policy = AdaptivePolicy()
        # Window 1: hot enough to flip.
        _drive(policy, [(i * 10_000, 5_000, False) for i in range(110)])
        assert policy.mechanism_of(SITE) == "switchless"
        # Window 2+: every call cold — worse than world switching.
        _drive(policy, [(1_100_000 + i * 10_000, 50_000, True)
                        for i in range(220)])
        assert policy.mechanism_of(SITE) == "world_call"
        assert [flip[1] for flip in policy.flips] == ["switchless",
                                                      "world_call"]

    def test_unknown_site_defaults_to_world_call(self):
        assert AdaptivePolicy().mechanism_of(SITE) == "world_call"


class TestDeterminism:
    def test_same_seed_identical_flip_log(self):
        snapshots = []
        for _ in range(2):
            cell = run_switchless_cell("bursty", "adaptive", seed=0)
            snapshots.append(cell["switchless"]["policy"])
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["flips"]    # the bursty workload does flip

    def test_different_seed_different_schedule(self):
        a = run_switchless_cell("bursty", "adaptive", seed=0)
        b = run_switchless_cell("bursty", "adaptive", seed=1)
        assert a["cycles_calls"] != b["cycles_calls"]

    def test_flip_log_records_modeled_cycles(self):
        cell = run_switchless_cell("bursty", "adaptive", seed=0)
        for _site, mechanism, cycles in cell["switchless"]["policy"]["flips"]:
            assert mechanism in ("switchless", "world_call")
            assert isinstance(cycles, int) and cycles > 0


class TestClockDomains:
    def test_backwards_clock_reanchors_without_flipping(self):
        """A window anchor from a previous machine (larger cycle count)
        must not wedge the boundary check or force a bogus flip."""
        policy = AdaptivePolicy()
        policy.sites[SITE] = SiteState(window_start=50_000_000_000,
                                       mechanism="switchless")
        policy.decide(SITE, 10_000)  # new machine: clock restarted
        state = policy.sites[SITE]
        assert state.window_start == 10_000
        assert state.calls == 1
        assert state.mechanism == "switchless"
        assert not policy.flips

    def test_rebase_restarts_windows(self):
        policy = AdaptivePolicy()
        _drive(policy, [(i * 10_000, 5_000, False) for i in range(50)])
        policy.rebase()
        for state in policy.sites.values():
            assert state.window_start == 0
            assert state.calls == 0


class TestSnapshot:
    def test_snapshot_shape(self):
        policy = AdaptivePolicy()
        _drive(policy, [(i * 10_000, 5_000, False) for i in range(110)])
        snap = policy.snapshot()
        assert set(snap) == {"flips", "sites"}
        assert snap["sites"] == {"world:1:2": "switchless"}
        assert snap["flips"][0][1] == "switchless"
