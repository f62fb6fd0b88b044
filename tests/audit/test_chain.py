"""Hash-chain construction, tamper evidence, and AuditViolation."""

import pytest

from repro.audit import FlightRecorder, verify_chain
from repro.audit.chain import ALGORITHM, GENESIS, link, require_chain
from repro.errors import AuditViolation, CrossOverError
from tests.audit import _feed


def _recorded_log(n=6, capacity=65536):
    rec = FlightRecorder("t", capacity)
    for i in range(n):
        _feed(rec, "core", "call_begin", caller_wid=1, callee_wid=2,
              cycles=100 * i)
        _feed(rec, "core", "call_end", caller_wid=1, callee_wid=2,
              cycles=100 * i + 50, detail="ok")
    return rec.to_log()


class TestChainPrimitives:
    def test_link_is_deterministic(self):
        record = {"seq": 0, "kind": "x", "hash": "ignored"}
        assert (link(GENESIS, record)
                == link(GENESIS, dict(record, hash="other")))

    def test_link_depends_on_prev(self):
        record = {"seq": 0, "kind": "x"}
        assert (link(GENESIS, record)
                != link("00" * 32, record))

    @pytest.mark.parametrize("algo", [ALGORITHM])
    def test_clean_log_verifies(self, algo):
        log = _recorded_log()
        assert log["algo"] == algo
        assert verify_chain(log) == []

    def test_empty_log_verifies(self):
        rec = FlightRecorder("empty")
        assert verify_chain(rec.to_log()) == []


class TestTamperEvidence:
    def test_field_mutation_names_offending_seq(self):
        log = _recorded_log()
        log["records"][3]["detail"] = "tampered"
        violations = verify_chain(log)
        assert violations
        assert violations[0]["seq"] == 3
        assert violations[0]["check"] == "link"

    def test_tail_truncation_detected(self):
        log = _recorded_log()
        log["records"] = log["records"][:-2]
        checks = {v["check"] for v in verify_chain(log)}
        assert "final" in checks

    def test_reorder_detected(self):
        log = _recorded_log()
        records = log["records"]
        records[1], records[2] = records[2], records[1]
        violations = verify_chain(log)
        assert violations
        assert violations[0]["seq"] in (1, 2)

    def test_mid_log_deletion_detected(self):
        log = _recorded_log()
        del log["records"][4]
        checks = {v["check"] for v in verify_chain(log)}
        assert "seq" in checks

    def test_forged_genesis_detected(self):
        log = _recorded_log()
        log["genesis"] = "00" * 32
        checks = {v["check"] for v in verify_chain(log)}
        assert "genesis" in checks

    def test_require_chain_raises_audit_violation(self):
        log = _recorded_log()
        log["records"][2]["cycles"] += 1
        with pytest.raises(AuditViolation) as excinfo:
            require_chain(log)
        assert excinfo.value.seq == 2
        assert "seq 2" in str(excinfo.value)

    def test_audit_violation_is_crossover_error(self):
        assert issubclass(AuditViolation, CrossOverError)


class TestRingBoundedVerification:
    def test_dropped_head_still_verifies(self):
        log = _recorded_log(n=30, capacity=10)
        assert log["dropped"] == 50     # 60 records, 10 retained
        assert log["first_seq"] == 50
        assert verify_chain(log) == []

    def test_tamper_in_retained_window_detected(self):
        log = _recorded_log(n=30, capacity=10)
        log["records"][5]["detail"] = "tampered"
        violations = verify_chain(log)
        assert violations
        assert violations[0]["seq"] == log["first_seq"] + 5
