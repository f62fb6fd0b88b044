"""Hash-chained audit records: construction and offline verification.

Every flight-recorder record carries ``hash = H(prev_hash ‖ record)``
over a canonical byte encoding of the record: all fields except the
hash itself, as ``json.dumps(body, sort_keys=True, separators=(",",
":"))`` would write them.  One encoder, :func:`encode_static` (and
:func:`encode`, its form for a body tuple), produces those
bytes for the recorder, :func:`canonical`, :func:`link` and
:func:`verify_chain` alike.  Of a record's 14 body fields only the
three counters (``seq``, ``epoch``, ``cycles``) change from record to
record; the other eleven (:data:`STATIC_FIELDS`) take one value
combination per site.  The encoder keys a bounded cache on those
eleven values and builds each entry once with ``json.dumps``: a
``bytes`` template with one ``%d`` slot per counter, so a record's
bytes are one ``template % (cycles, epoch, seq)``.  The cached path
takes exact ``int`` counters, an exact ``int`` or None in
``caller_wid``, ``callee_wid`` and ``ring``, and an exact ``str`` or
None elsewhere (``1``, ``True`` and ``1.0`` are equal keys but
different JSON); any other value, and any dict whose key set is not
exactly :data:`RECORD_FIELDS`, goes to ``json.dumps``.

The chain makes a recorded log *tamper evident* offline:

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
import operator
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AuditViolation

#: Seed material for the chain's genesis hash (also the artifact tag).
GENESIS_SEED = b"crossover-audit/v1"

#: The link algorithm every log declares.
ALGORITHM = "sha256"

#: The chain's anchor: the hash every log starts linking from.
GENESIS = hashlib.sha256(GENESIS_SEED).hexdigest()


#: Fixed record field order: the body fields, then the chain link.
RECORD_FIELDS = (
    "seq", "fam", "kind", "frm", "to", "caller_wid", "callee_wid",
    "mode", "ring", "epoch", "decision", "site", "detail", "cycles",
    "hash")

#: The fields that get hashed, in :data:`RECORD_FIELDS` order.
BODY_FIELDS = RECORD_FIELDS[:-1]

#: The three counters: the body fields whose values change on every
#: record.
COUNTER_FIELDS = ("seq", "epoch", "cycles")

#: The other eleven body fields, in :data:`BODY_FIELDS` order: their
#: values repeat from record to record (one combination per site).
STATIC_FIELDS = tuple(field for field in BODY_FIELDS
                      if field not in COUNTER_FIELDS)

_FIELD_SET = frozenset(RECORD_FIELDS)
_body_of = operator.itemgetter(*BODY_FIELDS)

#: The static fields that hold an int (or None); the rest hold a str
#: (or None).
_INT_FIELDS = frozenset(("caller_wid", "callee_wid", "ring"))

#: Static values -> (the same values, the one tuple every record of
#: that site shares; their canonical bytes with one ``%d`` slot per
#: counter, in sorted-key order: cycles, epoch, seq).
_TEMPLATES: Dict[Tuple[Any, ...], Tuple[Tuple[Any, ...], bytes]] = {}

#: Entries :data:`_TEMPLATES` holds before it is cleared.
TEMPLATE_LIMIT = 4096


def _template(static: Tuple[Any, ...]
              ) -> Optional[Tuple[Tuple[Any, ...], bytes]]:
    """Build and cache the template of one static value combination
    (None, uncached, when some value needs ``json.dumps``)."""
    for field, value in zip(STATIC_FIELDS, static):
        if value is not None and type(value) is not (
                int if field in _INT_FIELDS else str):
            return None
    values = dict(zip(STATIC_FIELDS, static))
    # ``json.dumps`` writes ASCII only; a ``%`` in a value is doubled
    # so that the format leaves it alone.
    text = "{" + ",".join(
        f'"{field}":%d' if field in COUNTER_FIELDS else
        f'"{field}":' + json.dumps(values[field]).replace("%", "%%")
        for field in sorted(BODY_FIELDS)) + "}"
    if len(_TEMPLATES) >= TEMPLATE_LIMIT:
        _TEMPLATES.clear()
    entry = _TEMPLATES[static] = (static, text.encode("ascii"))
    return entry


def encode_static(static: Tuple[Any, ...], seq: int, epoch: int,
                  cycles: int) -> Tuple[Tuple[Any, ...], bytes]:
    """The canonical bytes of one record body given as its
    :data:`STATIC_FIELDS` values and its three counters, with the
    cached tuple equal to ``static`` (``static`` itself when the body
    takes the ``json.dumps`` path).

    The cache key is the static values alone: once the int fields are
    admitted only as an exact ``int`` or None (``True`` and ``1.0``
    equal ``1``), equal keys mean equal types too.
    """
    # Positions in STATIC_FIELDS: fam..ring are 0-7, decision..detail
    # 8-10; in the body, epoch sits between the two runs.
    caller, callee, ring = static[4], static[5], static[7]
    if (type(cycles) is int and type(epoch) is int and type(seq) is int
            and (caller is None or type(caller) is int)
            and (callee is None or type(callee) is int)
            and (ring is None or type(ring) is int)):
        try:
            entry = _TEMPLATES.get(static)
        except TypeError:   # unhashable, so neither a str nor an int
            entry = None
        if entry is None:
            entry = _template(static)
        if entry is not None:
            return entry[0], entry[1] % (cycles, epoch, seq)
    return static, _dumps(dict(zip(BODY_FIELDS, (
        seq, *static[:8], epoch, *static[8:], cycles))))


def encode(body: Tuple[Any, ...]) -> bytes:
    """The canonical bytes of one record body: ``body`` holds the
    :data:`BODY_FIELDS` values in that order, and the result equals
    ``json.dumps`` of the body dict with sorted keys and no whitespace.
    """
    return encode_static(body[1:9] + body[10:13],
                         body[0], body[9], body[13])[1]


def _dumps(body: Dict[str, Any]) -> bytes:
    return json.dumps(body, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def canonical(record: Dict[str, Any]) -> bytes:
    """The byte encoding that gets hashed: every field except ``hash``,
    JSON-serialized with sorted keys and no whitespace."""
    if record.keys() == _FIELD_SET:
        return encode(_body_of(record))
    return _dumps({key: value for key, value in record.items()
                   if key != "hash"})


def link_static(prev_hash: str, static: Tuple[Any, ...], seq: int,
                epoch: int, cycles: int) -> Tuple[Tuple[Any, ...], str]:
    """``H(prev_hash ‖ body)`` for a body given as in
    :func:`encode_static`, with the cached tuple equal to ``static``."""
    static, raw = encode_static(static, seq, epoch, cycles)
    return static, hashlib.sha256(prev_hash.encode("ascii")
                                  + raw).hexdigest()


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
    for a truncated tail).  A structurally malformed log is a violation
    too, never an exception: ``log`` not a dict (check ``log``),
    ``records`` not a list (``records``), ``first_seq`` not an int
    (``first_seq``), or a record that is not a dict or has no ASCII
    string ``hash`` (``record``).
    """
    violations: List[Dict[str, Any]] = []

    def flag(seq: Optional[int], check: str, message: str) -> None:
        violations.append({"seq": seq, "check": check, "message": message})

    if not isinstance(log, dict):
        flag(None, "log", f"log is a {type(log).__name__}, not a dict")
        return violations
    algo = log.get("algo", ALGORITHM)
    if algo != ALGORITHM:
        flag(None, "algo", f"unknown chain algorithm {algo!r}")
        return violations
    records = log.get("records", [])
    first_seq = log.get("first_seq", 0)
    if not isinstance(records, list):
        flag(None, "records",
             f"records is a {type(records).__name__}, not a list")
        return violations
    if not isinstance(first_seq, int):
        flag(None, "first_seq", f"first_seq {first_seq!r} is not an int")
        return violations
    if log.get("genesis") != GENESIS:
        flag(None, "genesis",
             f"genesis mismatch: log says {log.get('genesis')!r}, "
             f"algorithm {algo} derives {GENESIS!r}")

    prev_hash: Optional[str] = GENESIS if first_seq == 0 else None
    expected_seq = seq = first_seq
    for index, record in enumerate(records):
        stored = record.get("hash") if isinstance(record, dict) else None
        if not (isinstance(stored, str) and stored.isascii()):
            seq = expected_seq
            flag(seq, "record",
                 f"record {index} is malformed: "
                 + (f"hash {stored!r} is not an ASCII string"
                    if isinstance(record, dict) else
                    f"a {type(record).__name__}, not a dict"))
            # Its successor's link cannot be recomputed: verification
            # resumes from that record's stored hash.
            prev_hash = None
            expected_seq += 1
            continue
        seq = record.get("seq")
        if seq != expected_seq:
            flag(seq, "seq",
                 f"sequence break: expected seq {expected_seq}, "
                 f"found {seq}")
            # Resynchronize so one reorder doesn't cascade into a
            # violation per remaining record.
            expected_seq = seq if isinstance(seq, int) else expected_seq
        if prev_hash is not None:
            expected = link(prev_hash, record)
            if stored != expected:
                flag(seq, "link",
                     f"chain break at seq {seq}: stored hash "
                     f"{stored!r} != recomputed {expected!r} "
                     "(record tampered or out of order)")
        # A ring-dropped head (prev_hash None) cannot have its own link
        # recomputed without its dropped predecessor; verification
        # starts from its stored hash.
        prev_hash = stored
        expected_seq += 1

    final = log.get("final_hash")
    if final != prev_hash:
        flag(seq, "final",
             f"final hash mismatch: log says {final!r}, records end at "
             f"{prev_hash!r} (tail truncated?)")
    return violations


def require_chain(log: Dict[str, Any]) -> None:
    """Raise :class:`~repro.errors.AuditViolation` on the first chain
    violation (programmatic form of :func:`verify_chain`)."""
    violations = verify_chain(log)
    if violations:
        first = violations[0]
        raise AuditViolation(first["message"], seq=first["seq"],
                             check=first["check"])
