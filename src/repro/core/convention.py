"""The calling convention: marshaling values across worlds.

The caller and callee "negotiate the calling convention during setup and
simple parameters can be passed directly through registers" (Section
3.3).  We model that split:

* payloads whose wire form fits :data:`REGISTER_BUDGET` bytes are
  "register-passed" — no shared-memory copy is charged;
* larger payloads go through the shared-memory channel, charged by size.

The wire format is a restricted, reversible literal encoding (no pickle:
a malicious peer must not gain code execution through the channel).
Guest-kernel result types (:class:`StatResult`, :class:`GuestOSError`)
and the runtime errors a callee reports to its caller as its whole
result (:class:`AuthorizationDenied`, :class:`WorldCallError`) get
explicit tagged encodings, so an error crosses out of band: a user value that
merely looks like one is escaped, never raised.
"""

from __future__ import annotations

import ast
import zlib
from collections import OrderedDict
from math import isfinite
from operator import is_not
from typing import Any

from repro import faults as _faults
from repro import observe
from repro.errors import (AuthorizationDenied, GuestOSError,
                          SimulationError, WorldCallError)
from repro.guestos.fs.inode import InodeType, StatResult

#: Bytes of arguments that fit in registers (6 GPRs x 8 bytes).
REGISTER_BUDGET = 48

_STAT_TAG = "__stat__"
_ERR_TAG = "__errno__"
_BYTES_TAG = "__bytes__"
_DENIED_TAG = "__denied__"
_WCERR_TAG = "__wcerr__"
#: Escape tag for user tuples whose first element collides with a tag.
_LIT_TAG = "__lit__"

_ALL_TAGS = frozenset({_STAT_TAG, _ERR_TAG, _BYTES_TAG, _DENIED_TAG,
                       _WCERR_TAG, _LIT_TAG})


#: Exact types whose repr is already the wire form (scalar fast path).
_SCALAR_TYPES = frozenset({bool, int, float, str, type(None)})


def _to_wire(value: Any) -> Any:
    """Convert to literal-encodable form (tagging rich types)."""
    t = type(value)
    if t in _SCALAR_TYPES:
        return value
    if t is tuple or t is list:
        wired = []
        for v in value:
            wired.append(v if type(v) in _SCALAR_TYPES else _to_wire(v))
        if t is list:
            return wired
        wired = tuple(wired)
        if wired and isinstance(wired[0], str) and wired[0] in _ALL_TAGS:
            return (_LIT_TAG, wired)
        return wired
    if t is dict:
        wired = {}
        for k, v in value.items():
            wired[k] = v if type(v) in _SCALAR_TYPES else _to_wire(v)
        return wired
    if t is bytes:
        return (_BYTES_TAG, value.hex())
    if isinstance(value, StatResult):
        fields = (value.ino, value.type.value, value.mode, value.uid,
                  value.gid, value.size, value.nlink, value.atime,
                  value.mtime, value.ctime)
        return (_STAT_TAG, fields)
    if isinstance(value, GuestOSError):
        return (_ERR_TAG, value.errno, value.message)
    if isinstance(value, bytes):
        return (_BYTES_TAG, value.hex())
    # Container subclasses marshal as their base type.
    if isinstance(value, tuple):
        return _to_wire(tuple(value))
    if isinstance(value, list):
        return _to_wire(list(value))
    if isinstance(value, dict):
        return _to_wire(dict(value.items()))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SimulationError(f"cannot marshal {type(value).__name__} "
                          "across worlds")


def _from_wire(value: Any) -> Any:
    """Inverse of :func:`_to_wire`."""
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == _LIT_TAG:
            # An escaped user tuple: un-wire its elements without
            # re-sniffing the tuple itself as a tag.
            return tuple(_from_wire(v) for v in value[1])
        if len(value) == 2 and value[0] == _STAT_TAG:
            f = value[1]
            return StatResult(ino=f[0], type=InodeType(f[1]), mode=f[2],
                              uid=f[3], gid=f[4], size=f[5], nlink=f[6],
                              atime=f[7], mtime=f[8], ctime=f[9])
        if len(value) == 3 and value[0] == _ERR_TAG:
            return GuestOSError(value[1], value[2])
        if len(value) == 2 and value[0] == _BYTES_TAG:
            return bytes.fromhex(value[1])
        return tuple(_from_wire(v) for v in value)
    if isinstance(value, list):
        return [_from_wire(v) for v in value]
    if isinstance(value, dict):
        return {k: _from_wire(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# The round-trip memo: the one marshaling cache.
#
# Benchmarks call the same operations thousands of times with identical
# payloads, and every hot call path needs both halves of a crossing: the
# wire form (for copy charges and register-fit checks) and a fresh copy
# of the payload for the peer.  :func:`roundtrip` memoizes both in one
# LRU keyed by the payload's content (type-qualified at every level, and
# order-preserving for dicts, whose repr depends on insertion order), so
# mutating a payload between calls simply produces a different key.
# The peer's copy is cached as a template frozen straight from the
# payload; nothing parses back the wire it has just written.  That is
# sound because only payloads that ``decode(encode(v))`` reproduces
# exactly get a key: nested ``nan``/``inf`` and dict keys that are not
# literals do not, and take the uncached encode -> decode path, which
# rejects them.  Deeply immutable payloads are shared outright; payloads
# containing mutable containers (or rich types like ``GuestOSError``,
# whose instances must not be shared across raises) are frozen and
# thawed — rebuilt container-by-container — on every call, so no two
# callers ever alias.  The cached wire is exactly what :func:`encode`
# emits, so simulated copy charges (which depend only on payload
# length) are bit-identical.
# ---------------------------------------------------------------------------

_CACHE_MAX = 4096

#: Content key -> (wire bytes, frozen template of the peer's copy).
_roundtrip_cache: "OrderedDict[Any, tuple]" = OrderedDict()

#: Integrity digests of cached wires, recorded only while a fault engine
#: is installed (the hot path pays nothing otherwise).  A hit whose wire
#: no longer matches its digest is a poisoned entry: it is dropped and
#: re-marshaled from the live payload instead of ever handing corrupted
#: bytes to a channel.
_wire_crc: dict = {}

#: Hit/miss statistics, exposed for benchmarks and tests.
cache_stats = {"roundtrip_hits": 0, "roundtrip_misses": 0,
               "poison_repaired": 0}

#: Exact scalar types keyed by their own value: their repr is a literal
#: that evaluates back to an equal value of the same type.
_VALUE_KEYED = frozenset({bool, int, str, type(None), bytes})


def _scalar_key(value: Any) -> Any:
    """Type-qualified key of a scalar the wire reproduces exactly, or
    ``None``.

    Floats are keyed by their repr, so ``-0.0`` and ``0.0`` (equal, but
    marshaled apart) never share an entry; ``nan`` and ``±inf`` have no
    literal repr, so they get no key.
    """
    t = type(value)
    if t in _VALUE_KEYED:
        return (t, value)
    if t is float and isfinite(value):
        return (float, repr(value))
    return None


def _literal_key(value: Any) -> Any:
    """Key of a dict key, or ``None``.  The wire carries dict keys as
    bare literals (never tagged), so only scalars and tuples of them
    survive the trip."""
    if type(value) is tuple:
        parts = [_literal_key(item) for item in value]
        return None if None in parts else (tuple, tuple(parts))
    return _scalar_key(value)


def _cache_key(value: Any) -> Any:
    """A hashable key identifying ``value`` and its structure, or
    ``None`` when the payload is not safely cacheable.

    The concrete type is part of the key at every level — dict keys and
    the fields of ``StatResult`` and ``GuestOSError`` included: ``1``,
    ``1.0`` and ``True`` hash equal but encode differently.  Mutable
    containers are keyed by content: a later mutation yields a
    different key rather than a stale hit.  A payload the uncached
    ``decode(encode(v))`` would not reproduce exactly gets no key.
    """
    t = type(value)
    if t is tuple or t is list:
        parts = []
        for v in value:
            tv = type(v)
            if tv in _VALUE_KEYED:
                parts.append((tv, v))
            else:
                part = _cache_key(v)
                if part is None:
                    return None
                parts.append(part)
        return (t, tuple(parts))
    if t is dict:
        parts = []
        for k, v in value.items():
            tk = type(k)
            kpart = (tk, k) if tk in _VALUE_KEYED else _literal_key(k)
            tv = type(v)
            part = (tv, v) if tv in _VALUE_KEYED else _cache_key(v)
            if kpart is None or part is None:
                return None
            parts.append((kpart, part))
        return (dict, tuple(parts))
    if t is StatResult:
        if type(value.type) is not InodeType:
            return None
        parts = tuple(map(_scalar_key, (
            value.ino, value.mode, value.uid, value.gid, value.size,
            value.nlink, value.atime, value.mtime, value.ctime)))
        return None if None in parts else (StatResult, value.type, parts)
    if t is GuestOSError:
        parts = (_scalar_key(value.errno), _scalar_key(value.message))
        return None if None in parts else (GuestOSError, parts)
    return _scalar_key(value)


class _Thaw:
    """Frozen template for a peer's copy that must be rebuilt (not
    shared) on every call."""

    __slots__ = ("items",)

    def __init__(self, items: tuple) -> None:
        self.items = items


class _ThawTuple(_Thaw):
    pass


class _ThawList(_Thaw):
    pass


class _ThawDict(_Thaw):
    pass


class _ThawStat(_Thaw):
    pass


class _ThawErr(_Thaw):
    pass


_THAW_TYPES = frozenset({_ThawTuple, _ThawList, _ThawDict, _ThawStat,
                         _ThawErr})

#: Exact types a template shares with every caller: immutable.
_SHARED_TYPES = _SCALAR_TYPES | {bytes}


def _freeze(value: Any) -> Any:
    """Build the cached template of a keyed payload's fresh copy.

    Deeply immutable values are returned as-is (shared by every call);
    anything containing a mutable container or a rich type becomes a
    :class:`_Thaw` node tree rebuilt by :func:`_thaw` per call.
    """
    t = type(value)
    if t in _SHARED_TYPES:
        return value
    if t is tuple or t is list:
        items = []
        for v in value:
            items.append(v if type(v) in _SHARED_TYPES else _freeze(v))
        if t is list:
            return _ThawList(tuple(items))
        # A tuple of shared items is itself shared.
        if any(map(is_not, items, value)):
            return _ThawTuple(tuple(items))
        return value
    if t is dict:
        items = []
        for k, v in value.items():
            items.append((k, v if type(v) in _SHARED_TYPES else _freeze(v)))
        return _ThawDict(tuple(items))
    if t is StatResult:
        return _ThawStat((value.ino, value.type, value.mode, value.uid,
                          value.gid, value.size, value.nlink, value.atime,
                          value.mtime, value.ctime))
    if t is GuestOSError:
        # Exceptions gain state when raised (``__traceback__``); a
        # cached instance must never be handed to two raisers.
        return _ThawErr((value.errno, value.message))
    raise SimulationError(f"cannot freeze {t.__name__}")  # pragma: no cover


def _thaw(node: _Thaw) -> Any:
    """Rebuild a fresh value from a :func:`_freeze` template node."""
    t = type(node)
    items = node.items
    if t is _ThawStat:
        return StatResult(*items)
    if t is _ThawErr:
        return GuestOSError(*items)
    if t is _ThawDict:
        fresh = {}
        for k, v in items:
            fresh[k] = _thaw(v) if type(v) in _THAW_TYPES else v
        return fresh
    out = []
    for v in items:
        out.append(_thaw(v) if type(v) in _THAW_TYPES else v)
    return out if t is _ThawList else tuple(out)


class _Unsupported(Exception):
    """Wire text outside the fast parser's grammar (fall back to ast)."""


_NUM_CHARS = frozenset("0123456789+-.eE")


def _fl_value(text: str, i: int):
    """Parse one literal starting at ``text[i]``; return ``(value, end)``.

    Handles exactly the subset :func:`encode` emits — numbers, strings
    without escapes, tuples/lists/dicts and the three constants — and
    raises :class:`_Unsupported` for anything else, so the caller can
    fall back to :func:`ast.literal_eval` (whose accept/reject behaviour
    therefore stays authoritative for everything unusual).
    """
    n = len(text)
    if i >= n:
        raise _Unsupported
    c = text[i]
    if c == "'" or c == '"':
        j = text.find(c, i + 1)
        if j < 0:
            raise _Unsupported
        seg = text[i + 1:j]
        if "\\" in seg:
            raise _Unsupported
        return seg, j + 1
    if c == "(":
        return _fl_seq(text, i + 1, ")", True)
    if c == "[":
        return _fl_seq(text, i + 1, "]", False)
    if c == "{":
        return _fl_dict(text, i + 1)
    if c in _NUM_CHARS:
        j = i + 1
        while j < n and text[j] in _NUM_CHARS:
            j += 1
        tok = text[i:j]
        try:
            if "." in tok or "e" in tok or "E" in tok:
                return float(tok), j
            return int(tok), j
        except ValueError:
            raise _Unsupported from None
    if text.startswith("None", i):
        return None, i + 4
    if text.startswith("True", i):
        return True, i + 4
    if text.startswith("False", i):
        return False, i + 5
    raise _Unsupported


def _fl_seq(text: str, i: int, close: str, is_tuple: bool):
    items = []
    n = len(text)
    saw_comma = False
    while True:
        while i < n and text[i] == " ":
            i += 1
        if i >= n:
            raise _Unsupported
        if text[i] == close:
            if is_tuple:
                # "(x)" is a parenthesised scalar, not a 1-tuple.
                if len(items) == 1 and not saw_comma:
                    raise _Unsupported
                return tuple(items), i + 1
            return items, i + 1
        value, i = _fl_value(text, i)
        items.append(value)
        while i < n and text[i] == " ":
            i += 1
        if i < n and text[i] == ",":
            saw_comma = True
            i += 1
        elif i < n and text[i] == close:
            if is_tuple and len(items) == 1 and not saw_comma:
                raise _Unsupported
            return (tuple(items), i + 1) if is_tuple else (items, i + 1)
        else:
            raise _Unsupported


def _fl_dict(text: str, i: int):
    items: dict = {}
    n = len(text)
    while True:
        while i < n and text[i] == " ":
            i += 1
        if i >= n:
            raise _Unsupported
        if text[i] == "}":
            return items, i + 1
        key, i = _fl_value(text, i)
        while i < n and text[i] == " ":
            i += 1
        if i >= n or text[i] != ":":
            raise _Unsupported
        i += 1
        while i < n and text[i] == " ":
            i += 1
        value, i = _fl_value(text, i)
        try:
            items[key] = value
        except TypeError:
            raise _Unsupported from None
        while i < n and text[i] == " ":
            i += 1
        if i < n and text[i] == ",":
            i += 1
        elif i < n and text[i] == "}":
            return items, i + 1
        else:
            raise _Unsupported


def _fast_literal(text: str):
    """Parse a wire literal without :func:`ast.literal_eval`.

    ~5x faster than compile+ast-walk on the short payloads the channel
    carries; raises :class:`_Unsupported` outside its strict grammar.
    """
    value, i = _fl_value(text, 0)
    if i != len(text):
        raise _Unsupported
    return value


def clear_caches() -> None:
    """Drop the marshaling cache and zero the statistics."""
    _roundtrip_cache.clear()
    _wire_crc.clear()
    for key in cache_stats:
        cache_stats[key] = 0


def poison_roundtrip_cache() -> int:
    """Corrupt every tracked round-trip cache wire (fault injection).

    Flips the last byte of each cached wire whose integrity digest is
    being maintained; returns how many entries were poisoned.  Used by
    the ``core.marshal_cache_poison`` injection site.
    """
    for key in _wire_crc:
        wire, frozen = _roundtrip_cache[key]
        _roundtrip_cache[key] = (wire[:-1] + bytes([wire[-1] ^ 0xFF]), frozen)
    return len(_wire_crc)


def encode(value: Any) -> bytes:
    """Marshal ``value`` to its wire form.

    A runtime error the callee reports (:class:`AuthorizationDenied`,
    :class:`WorldCallError`) crosses only as the whole result; inside a
    payload it is as unmarshalable as any other object.
    """
    if isinstance(value, AuthorizationDenied):
        return repr((_DENIED_TAG, value.detail or str(value))).encode()
    if isinstance(value, WorldCallError):
        return repr((_WCERR_TAG, str(value))).encode()
    return repr(_to_wire(value)).encode()


def decode(data: bytes) -> Any:
    """Unmarshal wire bytes (literal-eval only; never executes code)."""
    try:
        text = data.decode()
        try:
            literal = _fast_literal(text)
        except _Unsupported:
            literal = ast.literal_eval(text)
        if type(literal) is tuple and len(literal) == 2:
            if literal[0] == _DENIED_TAG:
                # The wire names no WID: the caller re-raises the denial
                # with its own (``repro.core.call.callee_outcome``).
                return AuthorizationDenied(-1, literal[1])
            if literal[0] == _WCERR_TAG:
                return WorldCallError(literal[1])
        return _from_wire(literal)
    except (ValueError, SyntaxError) as err:
        raise SimulationError(f"corrupt wire payload: {err}") from err


def roundtrip(value: Any) -> "tuple[bytes, Any]":
    """Marshal ``value`` and return ``(wire, fresh_decoded_copy)``.

    Equal to ``(encode(value), decode(encode(value)))``, memoized on the
    payload's content: a hit costs one key walk and a thaw, a miss one
    :func:`encode` and a copy walk.  Only a payload with no cache key
    (see :func:`_cache_key`) is decoded from its wire.
    """
    kind = type(value)
    if kind in _SCALAR_TYPES and (kind is not float or isfinite(value)):
        # Scalars are immutable and shareable: the repr is the wire form
        # and the "fresh copy" is the value itself.  A non-finite float
        # has no literal wire, so it takes encode -> decode and fails.
        return repr(value).encode(), value
    key = _cache_key(value)
    if key is None:
        wire = encode(value)
        return wire, decode(wire)
    hit = _roundtrip_cache.get(key)
    if hit is not None:
        wire, frozen = hit
        crc = _wire_crc.get(key) if _faults._engine is not None else None
        if crc is None or zlib.crc32(wire) == crc:
            _roundtrip_cache.move_to_end(key)
            cache_stats["roundtrip_hits"] += 1
            return wire, (_thaw(frozen) if type(frozen) in _THAW_TYPES
                          else frozen)
        # Poisoned entry: drop it and re-marshal from the live payload
        # rather than ever returning corrupted bytes.
        del _roundtrip_cache[key], _wire_crc[key]
        cache_stats["poison_repaired"] += 1
        observe.emit("core", "marshal_repair",
                     detail="poisoned round-trip cache entry re-marshaled")
    cache_stats["roundtrip_misses"] += 1
    wire = encode(value)
    frozen = _freeze(value)
    _roundtrip_cache[key] = (wire, frozen)
    if _faults._engine is not None:
        _wire_crc[key] = zlib.crc32(wire)
    if len(_roundtrip_cache) > _CACHE_MAX:
        evicted, _ = _roundtrip_cache.popitem(last=False)
        _wire_crc.pop(evicted, None)
    return wire, (_thaw(frozen) if type(frozen) in _THAW_TYPES
                  else frozen)


def fits_registers(data: bytes) -> bool:
    """Whether a wire payload is small enough for register passing."""
    return len(data) <= REGISTER_BUDGET
