"""Property-style round-trip tests for the marshaling convention.

The round-trip memo must be invisible: for every payload,
``decode(encode(v)) == v`` on the uncached functions, ``roundtrip(v)``
returns the same wire and an equal fresh copy cold and warm, and no
two copies alias.
"""

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
