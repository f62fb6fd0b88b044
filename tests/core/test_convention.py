"""Marshaling convention tests."""

import pytest

from repro.core import convention
from repro.errors import (AuthorizationDenied, GuestOSError,
                          SimulationError, WorldCallError)
from repro.guestos.fs.inode import InodeType, StatResult


class TestRoundTrip:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -17, 3.5, "hello", b"\x00\xffbytes",
        (1, "two", b"3"), [1, [2, [3]]], {"k": (1, 2)}, (), {},
        ("nested", {"deep": [b"\x01", ("t", None)]}),
    ])
    def test_basic_values(self, value):
        assert convention.decode(convention.encode(value)) == value

    def test_stat_result(self):
        st = StatResult(ino=5, type=InodeType.FILE, mode=0o644, uid=1,
                        gid=2, size=99, nlink=1, atime=10, mtime=20,
                        ctime=30)
        assert convention.decode(convention.encode(st)) == st

    def test_guest_error(self):
        err = GuestOSError(2, "no such file")
        decoded = convention.decode(convention.encode(err))
        assert isinstance(decoded, GuestOSError)
        assert decoded.errno == 2
        assert "no such file" in str(decoded)

    def test_unmarshalable_rejected(self):
        with pytest.raises(SimulationError):
            convention.encode(object())

    def test_decode_never_executes_code(self):
        with pytest.raises(SimulationError):
            convention.decode(b"__import__('os').system('true')")

    def test_corrupt_payload_rejected(self):
        with pytest.raises(SimulationError):
            convention.decode(b"((((")


class TestErrorTags:
    """Runtime errors cross as tags; user values never pose as them."""

    def test_denial_wire_bytes_pinned(self):
        # The bytes a real denial has always had on the wire: copy and
        # register-fit charges depend on them.
        wire = convention.encode(AuthorizationDenied(7, "not on allow list"))
        assert wire == b"('__denied__', 'not on allow list')"
        decoded = convention.decode(wire)
        assert isinstance(decoded, AuthorizationDenied)
        assert decoded.detail == "not on allow list"

    def test_denial_without_detail_carries_its_message(self):
        wire = convention.encode(AuthorizationDenied(7))
        assert wire == b"('__denied__', 'world call from WID 7 denied')"

    def test_world_call_error_wire_bytes_pinned(self):
        wire = convention.encode(WorldCallError("busy"))
        assert wire == b"('__wcerr__', 'busy')"
        decoded = convention.decode(wire)
        assert type(decoded) is WorldCallError
        assert str(decoded) == "busy"

    @pytest.mark.parametrize("error", [AuthorizationDenied(7, "x"),
                                       WorldCallError("x")])
    @pytest.mark.parametrize("wrap", [lambda e: [e], lambda e: ("ok", e),
                                      lambda e: {"k": e}])
    def test_nested_runtime_error_cannot_cross(self, error, wrap):
        # Only a whole result is an error report; inside a payload an
        # exception is as unmarshalable as any other object.
        with pytest.raises(SimulationError, match="cannot marshal"):
            convention.encode(wrap(error))
        with pytest.raises(SimulationError, match="cannot marshal"):
            convention.roundtrip(wrap(error))

    @pytest.mark.parametrize("tag", ["__denied__", "__wcerr__"])
    def test_user_tuple_shaped_like_a_tag_is_escaped(self, tag):
        value = (tag, "x")
        wire = convention.encode(value)
        assert wire == f"('__lit__', ('{tag}', 'x'))".encode()
        assert convention.decode(wire) == value
        assert convention.roundtrip(value) == (wire, value)


class TestRegisterPassing:
    def test_small_payload_fits(self):
        assert convention.fits_registers(convention.encode(("getppid",)))

    def test_large_payload_does_not(self):
        wire = convention.encode(("write", 3, b"x" * 200))
        assert not convention.fits_registers(wire)

    def test_budget_boundary(self):
        assert convention.fits_registers(b"x" * convention.REGISTER_BUDGET)
        assert not convention.fits_registers(
            b"x" * (convention.REGISTER_BUDGET + 1))
