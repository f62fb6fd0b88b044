"""Property-style round-trip tests for the marshaling convention.

The round-trip memo must be invisible: for every payload,
``decode(encode(v)) == v`` on the uncached functions, ``roundtrip(v)``
returns the same wire and an equal fresh copy cold and warm, and no
two copies alias.
"""

import math
import random

import pytest

from repro.core import convention
from repro.errors import GuestOSError, SimulationError
from repro.guestos.fs.inode import InodeType, StatResult


def _stat(ino=7):
    return StatResult(ino=ino, type=InodeType.FILE, mode=0o600, uid=3,
                      gid=4, size=1234, nlink=2, atime=1, mtime=2, ctime=3)


#: Payloads exercising every tagged type in nested positions.
PAYLOADS = [
    None, True, False, 0, 1, -1, 2 ** 63, 3.25, -0.0, "", "text",
    "uniécode", b"", b"\x00\x01\xfe", (), (1,), ((1, 2), (3, (4,))),
    [1, 2, 3], [[], [[]]], {}, {"k": "v"},
    _stat(),
    [_stat(1), _stat(2)],
    {"stat": _stat(), "errs": [GuestOSError(2, "enoent")]},
    ("mixed", [_stat(9), b"raw", {"deep": (GuestOSError(13, "eacces"),)}]),
    (("t", ("u", ("p", ("l", "e"))))),
    {"empty-ish": [None, (), [], {}, "", b""]},
]


def _fields(value):
    """A payload's content, with the fields of rich types spelled out
    (their reprs alone do not show the fields' types)."""
    t = type(value)
    if t is list or t is tuple:
        return t(_fields(v) for v in value)
    if t is dict:
        return {k: _fields(v) for k, v in value.items()}
    if t is GuestOSError:
        return ("GuestOSError", value.errno, value.message)
    return value


def _eq(a, b):
    """Equality that also distinguishes GuestOSError payloads."""
    if isinstance(a, GuestOSError):
        return (isinstance(b, GuestOSError) and a.errno == b.errno
                and a.message == b.message)
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_eq(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_eq(v, b[k]) for k, v in a.items()))
    return type(a) is type(b) and a == b


class TestRoundTripProperty:
    @pytest.mark.parametrize("value", PAYLOADS)
    def test_round_trip_fast(self, value):
        convention.clear_caches()
        for _ in range(2):      # cold, then warm
            wire, decoded = convention.roundtrip(value)
            assert _eq(decoded, value)
            assert _eq(convention.decode(wire), value)

    @pytest.mark.parametrize("value", PAYLOADS)
    def test_round_trip_slow(self, value):
        convention.clear_caches()
        for _ in range(2):      # before and after warming the memo
            assert _eq(convention.decode(convention.encode(value)), value)
            convention.roundtrip(value)

    @pytest.mark.parametrize("value", PAYLOADS)
    def test_wire_bytes_identical_fast_vs_slow(self, value):
        convention.clear_caches()
        slow_wire = convention.encode(value)
        cold, _ = convention.roundtrip(value)
        warm, _ = convention.roundtrip(value)
        assert slow_wire == cold == warm

    @pytest.mark.parametrize("value", PAYLOADS)
    def test_round_trip_warm_cache(self, value):
        convention.clear_caches()
        _, first = convention.roundtrip(value)
        _, second = convention.roundtrip(value)
        assert _eq(first, value) and _eq(second, value)


class TestScalarTypeFidelity:
    @pytest.mark.parametrize("a,b", [
        (1, True), (0, False), (1, 1.0),
        # Equal-hashing dict keys of different types.
        ({1: "a"}, {True: "a"}), ({1.0: 2}, {1: 2}),
        # 0.0 == -0.0, but the sign of zero is marshaled.
        ((0.0,), (-0.0,)), ([{"z": 0.0}], [{"z": -0.0}]),
    ])
    def test_equal_hashing_scalars_stay_distinct(self, a, b):
        """1, True and 1.0 (and 0.0 and -0.0) compare equal; the cache
        must not mix them, at top level, inside containers or as dict
        keys."""
        convention.clear_caches()
        for v in (a, b, a, b):
            # Plain literals: the wire form is the repr.
            assert convention.encode(v) == repr(v).encode()
            wire, decoded = convention.roundtrip(v)
            assert wire == repr(v).encode()
            assert repr(decoded) == repr(v)

    @pytest.mark.parametrize("a,b", [
        (_stat(ino=1), _stat(ino=True)), (_stat(ino=1), _stat(ino=1.0)),
        (GuestOSError(2, "x"), GuestOSError(2.0, "x")),
        (GuestOSError(1, "x"), GuestOSError(True, "x")),
        ([_stat(ino=0.0)], [_stat(ino=-0.0)]),
    ])
    def test_rich_type_fields_stay_distinct(self, a, b):
        """The fields of ``StatResult`` and ``GuestOSError`` are keyed
        with their types too: a cached ``ino=1`` must not answer for
        ``ino=True``, nor ``errno=2`` for ``errno=2.0``."""
        convention.clear_caches()
        for v in (a, b, a, b):
            wire, decoded = convention.roundtrip(v)
            assert wire == convention.encode(v)
            assert repr(_fields(decoded)) == repr(_fields(v))

    def test_enum_rejected_identically_both_paths(self):
        """A bare enum is not marshalable; the memo must reject it
        exactly like the plain encoder (no scalar shortcut, no
        caching)."""
        for marshal in (convention.encode, convention.roundtrip):
            for _ in range(2):
                with pytest.raises(SimulationError, match="cannot marshal"):
                    marshal(InodeType.FILE)

    def test_bool_int_reprs_survive_caching(self):
        """An int subclass like bool must keep its own wire form even
        after the other type was cached under an equal-hashing key."""
        convention.clear_caches()
        assert convention.roundtrip((1,))[0] == b"(1,)"
        assert convention.roundtrip((True,))[0] == b"(True,)"
        assert convention.roundtrip((1.0,))[0] == b"(1.0,)"


class TestCacheSafety:
    def test_decoded_mutables_not_shared(self):
        """Two decodes of the same wire, or two round trips of the same
        payload, share no container with each other or the payload."""
        wire = convention.encode([1, 2, 3])
        first = convention.decode(wire)
        second = convention.decode(wire)
        first.append(4)
        assert second == [1, 2, 3]

        convention.clear_caches()
        payload = {"list": [1, [2]], "dict": {"k": [3]}, "tuple": ([4],)}
        _, first = convention.roundtrip(payload)
        _, second = convention.roundtrip(payload)
        assert convention.cache_stats["roundtrip_hits"] == 1
        first["list"][1].append(5)
        first["dict"]["k"].append(6)
        first["tuple"][0].append(7)
        first["new"] = None
        expected = {"list": [1, [2]], "dict": {"k": [3]}, "tuple": ([4],)}
        assert second == payload == expected
        assert convention.roundtrip(payload)[1] == expected

    def test_mutated_payload_reencodes_fresh(self):
        """The memo must track content, not object identity."""
        convention.clear_caches()
        payload = [1, 2]
        assert convention.roundtrip(payload)[0] == b"[1, 2]"
        payload.append(3)
        wire, decoded = convention.roundtrip(payload)
        assert wire == b"[1, 2, 3]" and decoded == [1, 2, 3]
        assert convention.roundtrip((1, 3))[0] != \
            convention.roundtrip((1, 2))[0]

    def test_cache_stats_count_hits(self):
        convention.clear_caches()
        convention.roundtrip((b"abc", 1))
        convention.roundtrip((b"abc", 1))
        assert convention.cache_stats["roundtrip_misses"] == 1
        assert convention.cache_stats["roundtrip_hits"] == 1

    def test_cache_bounded(self):
        convention.clear_caches()
        for i in range(convention._CACHE_MAX + 100):
            convention.roundtrip((b"pad", i))
        assert len(convention._roundtrip_cache) == convention._CACHE_MAX


class TestCorruptPayloads:
    @pytest.mark.parametrize("wire", [
        b"((((", b"", b"1 +", b"[1, 2", b"\xff\xfe", b"lambda: 1",
        b"__import__('os')",
    ])
    def test_corrupt_wire_rejected_both_paths(self, wire):
        """Rejected by the strict reader and its ``ast`` fallback alike,
        and again after a valid round trip warmed the memo."""
        for _ in range(2):
            with pytest.raises(SimulationError):
                convention.decode(wire)
            convention.roundtrip(("warm", 1))


class TestUndecodablePayloadsStayRejected:
    """A payload whose wire the strict reader rejects never starts
    crossing: the memo gives it no key, so ``roundtrip`` takes the
    uncached ``encode`` -> ``decode`` path and fails exactly like it,
    on a cold cache and after the memo has been warmed."""

    @pytest.mark.parametrize("value", [
        (math.nan,), [math.inf], {"k": -math.inf},
        {GuestOSError(2, "x"): 1},
        [_stat(ino=math.nan)], (GuestOSError(math.inf, "x"),),
    ], ids=["nan-in-tuple", "inf-in-list", "neg-inf-dict-value",
            "error-dict-key", "nan-stat-field", "inf-errno"])
    def test_rejected_cold_and_warm(self, value):
        with pytest.raises(SimulationError, match="corrupt wire"):
            convention.decode(convention.encode(value))
        convention.clear_caches()
        for _ in range(2):      # cold, then with the memo warmed
            with pytest.raises(SimulationError, match="corrupt wire"):
                convention.roundtrip(value)
            convention.roundtrip(("warm", [1]))
        assert convention.cache_stats["roundtrip_misses"] == 1
        assert len(convention._roundtrip_cache) == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_top_level_non_finite_float_is_rejected(self, value):
        """A bare non-finite float skips the scalar fast path and fails
        like a nested one: its wire has no literal to decode."""
        with pytest.raises(SimulationError):
            convention.decode(convention.encode(value))
        for _ in range(2):
            with pytest.raises(SimulationError, match="corrupt wire"):
                convention.roundtrip(value)


def _random_payload(rng, depth=0):
    """A nested payload mixing every marshaled type with the values the
    wire cannot carry (non-finite floats, non-literal dict keys) and
    equal-hashing scalars of different types."""
    scalars = [0, 1, True, False, 1.0, -0.0, 2 ** 70, math.nan, math.inf,
               "", "'\"", "\\", "é", "__stat__", "__lit__", None, b"",
               b"\x00'"]
    kind = rng.randrange(8 if depth < 3 else 1)
    if kind == 0:
        return rng.choice(scalars)
    if kind == 1:
        return tuple(_random_payload(rng, depth + 1)
                     for _ in range(rng.randrange(4)))
    if kind == 2:
        return [_random_payload(rng, depth + 1)
                for _ in range(rng.randrange(4))]
    if kind == 3:
        keys = scalars + [(1, "a"), (math.nan,), GuestOSError(2, "x")]
        return {rng.choice(keys): _random_payload(rng, depth + 1)
                for _ in range(rng.randrange(3))}
    if kind == 4:
        return _stat(ino=rng.choice(scalars))
    if kind == 5:
        return GuestOSError(rng.choice(scalars), rng.choice(scalars))
    if kind == 6:
        return (rng.choice(["__stat__", "__denied__", "__bytes__"]),
                _random_payload(rng, depth + 1))
    return (rng.choice(scalars), [rng.choice(scalars)])


def _outcome(marshal, value):
    try:
        wire, copy = marshal(value)
    except SimulationError:
        return "rejected"
    return wire, repr(_fields(copy))


class TestMemoMatchesReference:
    def test_random_payloads_match_encode_then_decode(self):
        """The uncached ``encode`` -> ``decode`` pair is the reference:
        for every payload the memo returns the same wire and an equal
        copy, or rejects it, cold and warm."""
        rng = random.Random(11)
        convention.clear_caches()
        checked = 0
        for _ in range(2000):
            value = _random_payload(rng)
            expected = _outcome(
                lambda v: (convention.encode(v),
                           convention.decode(convention.encode(v))),
                value)
            for _ in range(2):
                assert _outcome(convention.roundtrip, value) == expected, \
                    value
            checked += 1
        assert checked > 1000
        assert convention.cache_stats["roundtrip_hits"] > 0
