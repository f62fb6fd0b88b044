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
get explicit tagged encodings.
"""

from __future__ import annotations

import ast
import zlib
from collections import OrderedDict
from typing import Any

from repro import faults as _faults
from repro import observe
from repro.core import fastpath
from repro.errors import GuestOSError, SimulationError
from repro.guestos.fs.inode import InodeType, StatResult

#: Bytes of arguments that fit in registers (6 GPRs x 8 bytes).
REGISTER_BUDGET = 48

_STAT_TAG = "__stat__"
_ERR_TAG = "__errno__"
_BYTES_TAG = "__bytes__"
#: Escape tag for user tuples whose first element collides with a tag.
_LIT_TAG = "__lit__"

_ALL_TAGS = frozenset({_STAT_TAG, _ERR_TAG, _BYTES_TAG, _LIT_TAG})


def _to_wire(value: Any) -> Any:
    """Convert to literal-encodable form (tagging rich types)."""
    if isinstance(value, StatResult):
        fields = (value.ino, value.type.value, value.mode, value.uid,
                  value.gid, value.size, value.nlink, value.atime,
                  value.mtime, value.ctime)
        return (_STAT_TAG, fields)
    if isinstance(value, GuestOSError):
        return (_ERR_TAG, value.errno, value.message)
    if isinstance(value, bytes):
        return (_BYTES_TAG, value.hex())
    if isinstance(value, tuple):
        wired = tuple(_to_wire(v) for v in value)
        if wired and isinstance(wired[0], str) and wired[0] in _ALL_TAGS:
            return (_LIT_TAG, wired)
        return wired
    if isinstance(value, list):
        return [_to_wire(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_wire(v) for k, v in value.items()}
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
# The marshaling cache (fast-path layer 1).
#
# Benchmarks call the same operations thousands of times with identical
# payloads, so the dominant pattern is re-encoding a value already seen
# (and re-parsing a wire form already produced).  Both directions are
# memoized in small LRUs.
#
# Encode keys capture the payload's full content (type-qualified, and
# order-preserving for dicts, whose repr depends on insertion order), so
# mutating a payload between encodes simply produces a different key.
# Decode entries for deeply immutable payloads are shared outright; for
# payloads containing mutable containers (or rich types like
# ``GuestOSError``, whose instances must not be shared across raises)
# the cache stores a frozen *template* that is thawed — rebuilt
# container-by-container — on every hit, so no two callers ever alias.
# The wire bytes produced are the exact ``repr`` the slow path would
# emit, so simulated copy charges (which depend only on payload length)
# are bit-identical.
# ---------------------------------------------------------------------------

_CACHE_MAX = 4096

_encode_cache: "OrderedDict[Any, bytes]" = OrderedDict()
_decode_cache: "OrderedDict[bytes, Any]" = OrderedDict()

#: Integrity digests of cached encode wires, maintained only while a
#: fault engine is installed (the hot path pays nothing otherwise).
#: A hit whose wire no longer matches its digest is a poisoned entry:
#: it is dropped and re-encoded from the live payload instead of ever
#: handing corrupted bytes to a channel.
_encode_crc: dict = {}

#: One-walk round-trip memo: content key -> (wire bytes, frozen decoded
#: template).  Hot call paths need *both* the wire form (for copy
#: charges and register-fit checks) and a fresh decoded copy (for the
#: callee); going through ``encode`` then ``decode`` walks the payload
#: once to key the encode cache and then hashes the produced wire again
#: to key the decode cache.  :func:`roundtrip` does one content-key walk
#: and returns both halves.
_roundtrip_cache: "OrderedDict[Any, tuple]" = OrderedDict()

#: Hit/miss statistics, exposed for BENCH artifacts and tests.
cache_stats = {"encode_hits": 0, "encode_misses": 0,
               "decode_hits": 0, "decode_misses": 0,
               "roundtrip_hits": 0, "roundtrip_misses": 0,
               "poison_repaired": 0}

#: Exact types whose repr is already the wire form (scalar fast path).
_SCALAR_TYPES = frozenset({bool, int, float, str, type(None)})


def _cache_key(value: Any) -> Any:
    """A hashable key identifying ``value`` and its structure, or
    ``None`` when the payload is not safely cacheable.

    The concrete type is part of the key: ``1``, ``1.0`` and ``True``
    hash equal but encode differently.  Mutable containers are keyed by
    content, which is safe for *encode*: a later mutation yields a
    different key rather than a stale hit.
    """
    t = type(value)
    if t in _SCALAR_TYPES or t is bytes:
        return (t, value)
    if t is tuple or t is list:
        parts = []
        for item in value:
            part = _cache_key(item)
            if part is None:
                return None
            parts.append(part)
        return (t, tuple(parts))
    if t is dict:
        parts = []
        for k, item in value.items():
            part = _cache_key(item)
            if part is None:
                return None
            parts.append((k, part))
        return (dict, tuple(parts))
    if t is StatResult:
        return (StatResult, value.ino, value.type, value.mode, value.uid,
                value.gid, value.size, value.nlink, value.atime,
                value.mtime, value.ctime)
    if t is GuestOSError:
        return (GuestOSError, value.errno, value.message)
    return None


class _Thaw:
    """Frozen template for a decoded payload that must be rebuilt (not
    shared) on every cache hit."""

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


def _freeze(value: Any) -> Any:
    """Build a cacheable template for a decoded value.

    Deeply immutable values are returned as-is (shared on hits);
    anything containing a mutable container or a rich type becomes a
    :class:`_Thaw` node tree rebuilt by :func:`_thaw` per hit.
    """
    t = type(value)
    if t in _SCALAR_TYPES or t is bytes:
        return value
    if t is tuple:
        frozen = tuple(_freeze(item) for item in value)
        if all(f is v for f, v in zip(frozen, value)):
            return value
        return _ThawTuple(frozen)
    if t is list:
        return _ThawList(tuple(_freeze(item) for item in value))
    if t is dict:
        return _ThawDict(tuple((k, _freeze(item))
                               for k, item in value.items()))
    if t is StatResult:
        return _ThawStat((value.ino, value.type, value.mode, value.uid,
                          value.gid, value.size, value.nlink, value.atime,
                          value.mtime, value.ctime))
    if t is GuestOSError:
        # Exceptions gain state when raised (``__traceback__``); a
        # cached instance must never be handed to two raisers.
        return _ThawErr((value.errno, value.message))
    raise SimulationError(f"cannot freeze {t.__name__}")  # pragma: no cover


def _thaw(node: Any) -> Any:
    """Rebuild a fresh value from a :func:`_freeze` template."""
    t = type(node)
    if t is _ThawList:
        return [_thaw(item) for item in node.items]
    if t is _ThawTuple:
        return tuple(_thaw(item) for item in node.items)
    if t is _ThawDict:
        return {k: _thaw(item) for k, item in node.items}
    if t is _ThawStat:
        f = node.items
        return StatResult(ino=f[0], type=f[1], mode=f[2], uid=f[3],
                          gid=f[4], size=f[5], nlink=f[6], atime=f[7],
                          mtime=f[8], ctime=f[9])
    if t is _ThawErr:
        return GuestOSError(node.items[0], node.items[1])
    return node


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
    """Drop the marshaling caches and zero the statistics."""
    _encode_cache.clear()
    _decode_cache.clear()
    _roundtrip_cache.clear()
    _encode_crc.clear()
    for key in cache_stats:
        cache_stats[key] = 0


def poison_encode_cache() -> int:
    """Corrupt every tracked encode-cache wire (fault injection).

    Flips the last byte of each cached wire whose integrity digest is
    being maintained; returns how many entries were poisoned.  Used by
    the ``core.marshal_cache_poison`` injection site.
    """
    poisoned = 0
    for key in list(_encode_crc):
        wire = _encode_cache.get(key)
        if wire is None or not wire:
            continue
        _encode_cache[key] = wire[:-1] + bytes([wire[-1] ^ 0xFF])
        poisoned += 1
    return poisoned


def encode(value: Any) -> bytes:
    """Marshal ``value`` to its wire form."""
    if not fastpath.enabled():
        return repr(_to_wire(value)).encode()
    if type(value) in _SCALAR_TYPES:
        # Register-sized scalar fast path: the repr *is* the wire form,
        # no tagging walk and no cache bookkeeping needed.
        return repr(value).encode()
    key = _cache_key(value)
    if key is not None:
        cached = _encode_cache.get(key)
        if cached is not None:
            if _faults._engine is not None:
                crc = _encode_crc.get(key)
                if crc is not None and zlib.crc32(cached) != crc:
                    # Poisoned entry: repair from the live payload
                    # rather than ever returning corrupted bytes.
                    cached = repr(_to_wire(value)).encode()
                    _encode_cache[key] = cached
                    _encode_crc[key] = zlib.crc32(cached)
                    cache_stats["poison_repaired"] += 1
                    observe.emit(
                        "core", "marshal_repair",
                        detail="poisoned encode-cache entry re-encoded")
            _encode_cache.move_to_end(key)
            cache_stats["encode_hits"] += 1
            return cached
    wire = repr(_to_wire(value)).encode()
    if key is not None:
        cache_stats["encode_misses"] += 1
        _encode_cache[key] = wire
        if _faults._engine is not None:
            _encode_crc[key] = zlib.crc32(wire)
        if len(_encode_cache) > _CACHE_MAX:
            evicted_key, _ = _encode_cache.popitem(last=False)
            _encode_crc.pop(evicted_key, None)
    return wire


def decode(data: bytes) -> Any:
    """Unmarshal wire bytes (literal-eval only; never executes code)."""
    if fastpath.enabled():
        cached = _decode_cache.get(data)
        if cached is not None:
            _decode_cache.move_to_end(data)
            cache_stats["decode_hits"] += 1
            return _thaw(cached) if isinstance(cached, _Thaw) else cached
    try:
        text = data.decode()
        try:
            literal = _fast_literal(text)
        except _Unsupported:
            literal = ast.literal_eval(text)
        value = _from_wire(literal)
    except (ValueError, SyntaxError) as err:
        raise SimulationError(f"corrupt wire payload: {err}") from err
    if fastpath.enabled():
        cache_stats["decode_misses"] += 1
        _decode_cache[bytes(data)] = _freeze(value)
        if len(_decode_cache) > _CACHE_MAX:
            _decode_cache.popitem(last=False)
    return value


def roundtrip(value: Any) -> "tuple[bytes, Any]":
    """Marshal ``value`` and return ``(wire, fresh_decoded_copy)`` with a
    single content-key walk.

    Equivalent to ``(encode(value), decode(encode(value)))`` but on the
    hot path: one :func:`_cache_key` walk keys both halves, so a hit
    does zero hashing of the produced wire bytes.  Callers must only use
    this while no fault engine is installed — the poison-repair CRC
    validation lives in :func:`encode` and is deliberately skipped here
    (``WorldCallRuntime._call`` encodes and decodes separately whenever
    faults are armed).
    """
    if not fastpath.enabled():
        wire = encode(value)
        return wire, decode(wire)
    t = type(value)
    if t in _SCALAR_TYPES:
        # Scalars are immutable and shareable: the repr is the wire form
        # and the "fresh copy" is the value itself.
        return repr(value).encode(), value
    key = _cache_key(value)
    if key is None:
        wire = encode(value)
        return wire, decode(wire)
    hit = _roundtrip_cache.get(key)
    if hit is not None:
        _roundtrip_cache.move_to_end(key)
        cache_stats["roundtrip_hits"] += 1
        wire, frozen = hit
        return wire, (_thaw(frozen) if isinstance(frozen, _Thaw) else frozen)
    cache_stats["roundtrip_misses"] += 1
    wire = encode(value)
    fresh = decode(wire)
    # Freeze before handing ``fresh`` back: the caller may mutate it.
    _roundtrip_cache[key] = (wire, _freeze(fresh))
    if len(_roundtrip_cache) > _CACHE_MAX:
        _roundtrip_cache.popitem(last=False)
    return wire, fresh


def fits_registers(data: bytes) -> bool:
    """Whether a wire payload is small enough for register passing."""
    return len(data) <= REGISTER_BUDGET
