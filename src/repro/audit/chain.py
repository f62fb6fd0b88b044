"""Hash-chained audit records: construction and offline verification.

Every flight-recorder record carries ``hash = H(prev_hash ‖ record)``
over a canonical byte encoding of the record (all fields except the
hash itself, JSON with sorted keys and no whitespace).  The chain makes
a recorded log *tamper evident* offline:

* mutating any field of record *i* breaks the link at *i* (its stored
  hash no longer matches the recomputation from record *i-1*'s hash);
* reordering breaks both the ``seq`` contiguity check and the links;
* truncating the tail is caught by the log's stored ``final_hash``;
* truncating the head is caught by ``first_seq`` (a bounded recorder
  legitimately drops its oldest records — the drop count is declared,
  and the retained window still verifies link by link).

Links are SHA-256; a log declaring any other ``algo`` fails
verification.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.errors import AuditViolation

#: Seed material for the chain's genesis hash (also the artifact tag).
GENESIS_SEED = b"crossover-audit/v1"

#: The link algorithm every log declares.
ALGORITHM = "sha256"

#: The chain's anchor: the hash every log starts linking from.
GENESIS = hashlib.sha256(GENESIS_SEED).hexdigest()


def canonical(record: Dict[str, Any]) -> bytes:
    """The byte encoding that gets hashed: every field except ``hash``,
    JSON-serialized with sorted keys and no whitespace."""
    body = {key: value for key, value in record.items() if key != "hash"}
    return json.dumps(body, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def link(prev_hash: str, record: Dict[str, Any]) -> str:
    """``H(prev_hash ‖ record)`` — the hash record must carry."""
    return hashlib.sha256(prev_hash.encode("ascii")
                          + canonical(record)).hexdigest()


def verify_chain(log: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Verify one recorded log offline; returns a list of violations.

    ``log`` is the dict :meth:`~repro.audit.recorder.FlightRecorder.
    to_log` produces (``algo``, ``genesis``, ``first_seq``, ``dropped``,
    ``final_hash``, ``records``).  An empty list means the chain is
    intact.  Each violation is ``{seq, check, message}`` where ``seq``
    is the offending record's sequence number (or the expected next one
    for a truncated tail).
    """
    violations: List[Dict[str, Any]] = []

    def flag(seq: Optional[int], check: str, message: str) -> None:
        violations.append({"seq": seq, "check": check, "message": message})

    algo = log.get("algo", ALGORITHM)
    if algo != ALGORITHM:
        flag(None, "algo", f"unknown chain algorithm {algo!r}")
        return violations
    records = log.get("records", [])
    first_seq = log.get("first_seq", 0)
    if log.get("genesis") != GENESIS:
        flag(None, "genesis",
             f"genesis mismatch: log says {log.get('genesis')!r}, "
             f"algorithm {algo} derives {GENESIS!r}")

    prev_hash: Optional[str] = GENESIS if first_seq == 0 else None
    expected_seq = first_seq
    for record in records:
        seq = record.get("seq")
        if seq != expected_seq:
            flag(seq, "seq",
                 f"sequence break: expected seq {expected_seq}, "
                 f"found {seq}")
            # Resynchronize so one reorder doesn't cascade into a
            # violation per remaining record.
            expected_seq = seq if isinstance(seq, int) else expected_seq
        if prev_hash is None:
            # Ring-dropped head: the first retained record's own link
            # cannot be recomputed without its (dropped) predecessor;
            # verification starts from its stored hash.
            prev_hash = record.get("hash")
        else:
            expected = link(prev_hash, record)
            if record.get("hash") != expected:
                flag(seq, "link",
                     f"chain break at seq {seq}: stored hash "
                     f"{record.get('hash')!r} != recomputed {expected!r} "
                     "(record tampered or out of order)")
            prev_hash = record.get("hash")
        expected_seq += 1

    final = log.get("final_hash")
    tail = records[-1]["hash"] if records else (
        GENESIS if first_seq == 0 else None)
    if final != tail:
        flag(records[-1]["seq"] if records else first_seq, "final",
             f"final hash mismatch: log says {final!r}, records end at "
             f"{tail!r} (tail truncated?)")
    return violations


def require_chain(log: Dict[str, Any]) -> None:
    """Raise :class:`~repro.errors.AuditViolation` on the first chain
    violation (programmatic form of :func:`verify_chain`)."""
    violations = verify_chain(log)
    if violations:
        first = violations[0]
        raise AuditViolation(first["message"], seq=first["seq"],
                             check=first["check"])
