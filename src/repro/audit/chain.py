"""Hash-chained audit records: construction and offline verification.

Every flight-recorder record carries ``hash = H(prev_hash ‖ record)``
over a canonical byte encoding of the record: all fields except the
hash itself, as ``json.dumps(body, sort_keys=True, separators=(",",
":"))`` would write them.  One encoder, :func:`encode`, produces those
bytes for the recorder, :func:`canonical`, :func:`link` and
:func:`verify_chain` alike.  Every record has the same 14 body fields,
so their sorted order is a constant; the encoder fills a fixed
template, cached per value shape (the exact type of each field), and
falls back to ``json.dumps`` for any value that is not an exact
``str``, ``int`` or ``None``, for strings that need escaping, and for
dicts whose key set is not exactly :data:`RECORD_FIELDS`.

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
from typing import Any, Callable, Dict, List, Optional, Tuple

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

_FIELD_SET = frozenset(RECORD_FIELDS)
_body_of = operator.itemgetter(*BODY_FIELDS)

#: Body positions in canonical (sorted-key) order; ``callee_wid``
#: sorts before ``caller_wid``.
_SORTED = sorted(range(len(BODY_FIELDS)), key=BODY_FIELDS.__getitem__)

#: Value shape (the exact type of each body field) -> (format string,
#: picker of the non-None values in sorted order, the ``"`` the format
#: writes), or None when some type needs ``json.dumps``.
_TEMPLATES: Dict[Tuple[type, ...],
                 Optional[Tuple[str, Callable, bytes]]] = {}

#: The bytes a JSON string holds unescaped: printable ASCII but ``"``
#: and ``\``.
_PLAIN = bytes(c for c in range(0x20, 0x7f) if c not in b'"\\')


def _template(shape: Tuple[type, ...]):
    """Build the template for one value shape (None: fall back)."""
    parts, picked = [], []
    for index in _SORTED:
        kind = shape[index]
        if kind is type(None):
            slot = "null"
        elif kind is int or kind is str:
            slot = "%s" if kind is int else '"%s"'
            picked.append(index)
        else:
            return None
        # Field names are plain identifiers: no escaping, no ``%``.
        parts.append(f'"{BODY_FIELDS[index]}":{slot}')
    text = "{" + ",".join(parts) + "}"
    if len(picked) > 1:
        pick = operator.itemgetter(*picked)
    else:   # itemgetter returns a bare value for one index
        def pick(values):
            return tuple(values[index] for index in picked)
    return text, pick, b'"' * text.count('"')


def encode(body: Tuple[Any, ...]) -> bytes:
    """The canonical bytes of one record body: ``body`` holds the
    :data:`BODY_FIELDS` values in that order, and the result equals
    ``json.dumps`` of the body dict with sorted keys and no whitespace.
    """
    shape = tuple(map(type, body))
    try:
        entry = _TEMPLATES[shape]
    except KeyError:
        entry = _TEMPLATES[shape] = _template(shape)
    if entry is not None:
        text, pick, quotes = entry
        raw = (text % pick(body)).encode("utf-8", "surrogatepass")
        # Printable ASCII other than ``"`` and ``\`` encodes as itself,
        # so the template's own quotes must be all that is left.
        if raw.translate(None, _PLAIN) == quotes:
            return raw
    return _dumps(dict(zip(BODY_FIELDS, body)))


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


def link_body(prev_hash: str, body: Tuple[Any, ...]) -> str:
    """``H(prev_hash ‖ body)`` for a body tuple (see :func:`encode`)."""
    return hashlib.sha256(prev_hash.encode("ascii")
                          + encode(body)).hexdigest()


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
