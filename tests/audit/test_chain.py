"""Hash-chain construction, the canonical encoder, tamper evidence,
and AuditViolation."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit import FlightRecorder, RECORD_FIELDS, verify_chain
from repro.audit.chain import (
    ALGORITHM, BODY_FIELDS, GENESIS, canonical, encode, link,
    require_chain)
from repro.errors import AuditViolation, CrossOverError
from repro.observe import Event
from tests.audit import _feed


def _recorded_log(n=6, capacity=65536):
    rec = FlightRecorder("t", capacity)
    for i in range(n):
        _feed(rec, "core", "call_begin", caller_wid=1, callee_wid=2,
              cycles=100 * i)
        _feed(rec, "core", "call_end", caller_wid=1, callee_wid=2,
              cycles=100 * i + 50, detail="ok")
    return rec.to_log()


def _reference(body):
    """The canonical bytes as the chain defines them."""
    return json.dumps(body, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _reference_link(prev_hash, body):
    return hashlib.sha256(prev_hash.encode("ascii")
                          + _reference(body)).hexdigest()


#: Strings that must be escaped, or must not be read as format codes.
_awkward = st.text(alphabet=st.sampled_from(
    '"\\%s\x00\x1f\x7f\u00e9\u20ac\U0001f600\ud800 aZ9(){}:,'))

_values = st.one_of(
    st.none(), st.integers(), st.booleans(), st.sampled_from([0, 1, True,
                                                            False, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(), _awkward)

_bodies = st.fixed_dictionaries({field: _values for field in BODY_FIELDS})


class TestCanonicalEncoder:
    @given(_bodies)
    @settings(max_examples=400)
    def test_encode_equals_json_dumps(self, body):
        expected = _reference(body)
        assert encode(tuple(body[field] for field in BODY_FIELDS)) \
            == expected
        assert canonical(dict(body, hash="h")) == expected

    @pytest.mark.parametrize("first, second", [(1, True), (True, 1),
                                               (0, False), (1, 1.0)])
    def test_equal_values_of_another_type_get_their_own_template(
            self, first, second):
        # True == 1 and hash(True) == hash(1): a value-keyed template
        # cache would serve the int template to the bool.
        base = dict.fromkeys(BODY_FIELDS, 7)
        for value in (first, second):
            body = dict(base, ring=value)
            assert encode(tuple(body.values())) == _reference(body)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), 1.5, -0.0])
    def test_floats_fall_back(self, value):
        body = dict.fromkeys(BODY_FIELDS, "x")
        body["cycles"] = value
        assert encode(tuple(body.values())) == _reference(body)

    @given(_bodies, st.sampled_from(BODY_FIELDS),
           st.sampled_from(["extra", "hashes", "Seq", ""]), _values)
    @settings(max_examples=100)
    def test_other_key_sets_fall_back(self, body, missing, extra, value):
        short = {k: v for k, v in body.items() if k != missing}
        assert canonical(dict(short, hash="h")) == _reference(short)
        assert canonical(short) == _reference(short)
        wide = dict(body, **{extra: value})
        assert canonical(dict(wide, hash="h")) == _reference(wide)


_events = st.builds(
    Event,
    fam=st.sampled_from(["trace", "hw", "hv", "core", "sys", "fault"]),
    kind=st.sampled_from(["world_call", "authorization", "hypercall",
                          "recovery", "fault_injected", "call_end"]),
    frm=st.text(max_size=8), to=_awkward,
    caller_wid=st.none() | st.integers(), callee_wid=_values,
    mode=st.sampled_from([None, "H", "G"]),
    ring=st.none() | st.integers(0, 3),
    decision=st.sampled_from([None, "allow", "deny"]),
    site=st.none() | st.text(max_size=8), detail=_awkward,
    cycles=st.integers(0, 10**12) | st.booleans())


class TestRecorderChainProperty:
    @given(st.lists(_events, max_size=40), st.integers(1, 50))
    @settings(max_examples=100)
    def test_every_stored_hash_links_its_record(self, events, capacity):
        rec = FlightRecorder("prop", capacity)
        for event in events:
            rec.on_event(event)
        log = rec.to_log()
        assert log["dropped"] == len(events) - len(log["records"])
        prev = GENESIS if log["first_seq"] == 0 else None
        for record in log["records"]:
            assert tuple(record) == RECORD_FIELDS
            if prev is not None:
                assert record["hash"] == link(prev, record)
                body = {k: v for k, v in record.items() if k != "hash"}
                assert record["hash"] == _reference_link(prev, body)
            prev = record["hash"]
        assert log["final_hash"] == (prev if events else GENESIS)
        assert verify_chain(log) == []


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


class TestMalformedLogs:
    @pytest.mark.parametrize("mutate, check", [
        (lambda log: log["records"][-1].pop("hash"), "record"),
        (lambda log: log["records"][2].pop("hash"), "record"),
        (lambda log: log["records"][-1].update(hash=7), "record"),
        (lambda log: log["records"].__setitem__(3, "not a record"),
         "record"),
        (lambda log: log["records"].__setitem__(-1, None), "record"),
        (lambda log: log.update(records=None), "records"),
        (lambda log: log.update(first_seq=None), "first_seq"),
    ], ids=["last-without-hash", "middle-without-hash", "hash-not-str",
            "str-record", "none-record", "records-none",
            "first-seq-none"])
    def test_malformed_log_is_a_named_violation(self, mutate, check):
        log = _recorded_log()
        mutate(log)
        violations = verify_chain(log)
        assert violations[0]["check"] == check
        with pytest.raises(AuditViolation) as excinfo:
            require_chain(log)
        assert excinfo.value.check == check

    def test_malformed_record_does_not_cascade(self):
        log = _recorded_log()
        log["records"][3] = "not a record"
        violations = verify_chain(log)
        assert [(v["seq"], v["check"]) for v in violations] \
            == [(3, "record")]

    @pytest.mark.parametrize("log", [None, [], "log"])
    def test_non_dict_log(self, log):
        assert [v["check"] for v in verify_chain(log)] == ["log"]
        with pytest.raises(AuditViolation):
            require_chain(log)
