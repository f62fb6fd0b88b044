"""Anomaly detectors over synthetic flight-recorder logs."""

from repro.audit import DETECTORS, FlightRecorder, run_detectors
from repro.audit.detectors import (
    DENIAL_BURST_COUNT,
    STORM_RUN_LENGTH,
    bracket_fingerprints,
    fingerprint_key,
)
from tests.audit import _feed


def _clean_ops(rec, n=3):
    for i in range(n):
        _feed(rec, "core", "call_begin", caller_wid=1, callee_wid=2,
              cycles=1000 * i)
        _feed(rec, "hw", "world_call", frm="K(vm1)", to="K(vm2)", caller_wid=1,
              callee_wid=2, mode="G", ring=0, cycles=1000 * i + 100)
        _feed(rec, "core", "authorization", caller_wid=1, callee_wid=2,
              decision="allow")
        _feed(rec, "hw", "world_call", frm="K(vm2)", to="K(vm1)", caller_wid=2,
              callee_wid=1, mode="G", ring=0, cycles=1000 * i + 700)
        _feed(rec, "core", "call_end", caller_wid=1, callee_wid=2,
              cycles=1000 * i + 800, detail="ok")


class TestRegistry:
    def test_builtins_registered(self):
        assert set(DETECTORS) >= {"chain_break", "forged_wid",
                                  "denial_burst", "injection_storm",
                                  "crossing_drift"}

    def test_clean_log_no_anomalies(self):
        rec = FlightRecorder("clean")
        _clean_ops(rec, 4)
        assert run_detectors(rec.to_log()) == []

    def test_names_filter(self):
        rec = FlightRecorder("f")
        _clean_ops(rec)
        assert run_detectors(rec.to_log(), names=["chain_break"]) == []


class TestChainBreakDetector:
    def test_flags_tampered_log(self):
        rec = FlightRecorder("t")
        _clean_ops(rec)
        log = rec.to_log()
        log["records"][2]["detail"] = "tampered"
        anomalies = run_detectors(log, names=["chain_break"])
        assert anomalies
        assert anomalies[0]["detector"] == "chain_break"
        assert anomalies[0]["seq"] == 2


class TestForgedWidDetector:
    def test_flags_unauthenticated_wid(self):
        rec = FlightRecorder("forged")
        _clean_ops(rec, 1)
        _feed(rec, "core", "authorization", caller_wid=0x7FFF_FFFF,
              callee_wid=2, decision="deny", detail="forged caller")
        anomalies = run_detectors(rec.to_log(), names=["forged_wid"])
        assert anomalies
        assert anomalies[0]["wid"] == 0x7FFF_FFFF

    def test_silent_without_hw_ground_truth(self):
        rec = FlightRecorder("legacy-only")
        _feed(rec, "core", "authorization", caller_wid=999, callee_wid=2,
              decision="allow")
        assert run_detectors(rec.to_log(), names=["forged_wid"]) == []


class TestDenialBurstDetector:
    def test_flags_burst(self):
        rec = FlightRecorder("burst")
        for _ in range(DENIAL_BURST_COUNT):
            _feed(rec, "core", "authorization", caller_wid=1, callee_wid=2,
                  decision="deny")
        anomalies = run_detectors(rec.to_log(), names=["denial_burst"])
        assert anomalies
        assert anomalies[0]["detector"] == "denial_burst"

    def test_single_deny_is_quiet(self):
        rec = FlightRecorder("one-deny")
        _feed(rec, "core", "authorization", caller_wid=1, callee_wid=2,
              decision="deny")
        assert run_detectors(rec.to_log(), names=["denial_burst"]) == []

    def test_distant_denies_are_quiet(self):
        rec = FlightRecorder("spread")
        _feed(rec, "core", "authorization", caller_wid=1, callee_wid=2,
              decision="deny")
        for _ in range(60):
            _feed(rec, "core", "recovery", detail="wtc_refill")
        _feed(rec, "core", "authorization", caller_wid=1, callee_wid=2,
              decision="deny")
        assert run_detectors(rec.to_log(), names=["denial_burst"]) == []


class TestInjectionStormDetector:
    def test_flags_storm_run(self):
        rec = FlightRecorder("storm")
        for _ in range(STORM_RUN_LENGTH):
            _feed(rec, "hv", "virq_deliver", to="vm2", detail="vector 0x20")
        anomalies = run_detectors(rec.to_log(),
                                  names=["injection_storm"])
        assert anomalies
        assert anomalies[0]["count"] == STORM_RUN_LENGTH

    def test_alternating_inject_deliver_is_quiet(self):
        rec = FlightRecorder("alternate")
        for _ in range(STORM_RUN_LENGTH):
            _feed(rec, "hv", "virq_inject", to="vm2", detail="vector 0x20")
            _feed(rec, "hv", "virq_deliver", to="vm2", detail="vector 0x20")
        assert run_detectors(rec.to_log(),
                             names=["injection_storm"]) == []

    def test_mixed_vectors_reset_run(self):
        rec = FlightRecorder("mixed")
        for vector in (0x20, 0x21, 0x20, 0x21):
            _feed(rec, "hv", "virq_deliver", to="vm2",
                  detail=f"vector {vector:#x}")
        assert run_detectors(rec.to_log(),
                             names=["injection_storm"]) == []


class TestCrossingDriftDetector:
    def test_flags_drifted_operation(self):
        rec = FlightRecorder("drift")
        _clean_ops(rec, 3)
        _feed(rec, "core", "call_begin", caller_wid=1, callee_wid=2,
              cycles=9000)
        # no hw hops: degraded op
        _feed(rec, "core", "recovery", detail="legacy_fallback")
        _feed(rec, "core", "call_end", caller_wid=1, callee_wid=2, cycles=9900,
              detail="ok")
        anomalies = run_detectors(rec.to_log(),
                                  names=["crossing_drift"])
        assert anomalies
        assert anomalies[0]["detector"] == "crossing_drift"

    def test_first_bracket_exempt(self):
        rec = FlightRecorder("cold-start")
        _feed(rec, "core", "call_begin", caller_wid=1, callee_wid=2, cycles=0)
        # cold-start arming
        _feed(rec, "hv", "hypercall", frm="vm1", to="host", decision="allow",
              detail="number 0x10")
        _clean_ops(rec, 0)
        _feed(rec, "core", "call_end", caller_wid=1, callee_wid=2, cycles=500,
              detail="ok")
        _clean_ops(rec, 3)
        assert run_detectors(rec.to_log(),
                             names=["crossing_drift"]) == []

    def test_explicit_baseline(self):
        rec = FlightRecorder("baseline")
        _clean_ops(rec, 4)
        fingerprints = bracket_fingerprints(rec.to_log())
        assert len(fingerprints) == 4
        baseline = fingerprints[1]
        assert run_detectors(rec.to_log(), baseline=baseline) == []
        assert (fingerprint_key(fingerprints[2])
                == fingerprint_key(baseline))

    def test_honesty_fault_markers_ignored(self):
        """An op that differs ONLY by the engine's courtesy marker must
        not be flagged — detectors grade from datapath records alone."""
        rec = FlightRecorder("honesty")
        _clean_ops(rec, 2)
        _feed(rec, "core", "call_begin", caller_wid=1, callee_wid=2,
              cycles=5000)
        _feed(rec, "fault", "fault_injected", site="hw.wt_cache_incoherence")
        _feed(rec, "hw", "world_call", frm="K(vm1)", to="K(vm2)", caller_wid=1,
              callee_wid=2, mode="G", ring=0, cycles=5100)
        _feed(rec, "core", "authorization", caller_wid=1, callee_wid=2,
              decision="allow")
        _feed(rec, "hw", "world_call", frm="K(vm2)", to="K(vm1)", caller_wid=2,
              callee_wid=1, mode="G", ring=0, cycles=5700)
        _feed(rec, "core", "call_end", caller_wid=1, callee_wid=2, cycles=5800,
              detail="ok")
        assert run_detectors(rec.to_log(),
                             names=["crossing_drift"]) == []
