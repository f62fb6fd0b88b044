"""Inodes and stat structures."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import GuestOSError

_ino_counter = itertools.count(2)  # inode 1 is conventionally the root


class Errno:
    """The errno values the simulated kernel uses."""

    EPERM = 1
    ENOENT = 2
    EBADF = 9
    EAGAIN = 11
    EACCES = 13
    EBUSY = 16
    EEXIST = 17
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    EMFILE = 24
    ESPIPE = 29
    EROFS = 30
    EPIPE = 32
    ENOSYS = 38
    ENOTEMPTY = 39
    ECONNREFUSED = 111


class InodeType(enum.Enum):
    """File types."""

    FILE = "file"
    DIR = "dir"
    DEVICE = "dev"
    SYMLINK = "symlink"
    FIFO = "fifo"
    SOCKET = "socket"


@dataclass(frozen=True)
class StatResult:
    """What ``stat``/``fstat`` return to userland."""

    ino: int
    type: InodeType
    mode: int
    uid: int
    gid: int
    size: int
    nlink: int
    atime: int
    mtime: int
    ctime: int


class Inode:
    """One filesystem object.

    ``FILE`` inodes carry ``data``; ``DIR`` inodes carry ``children``
    (name -> Inode); ``DEVICE`` inodes carry a ``driver`` object
    exposing ``read(offset, length) -> bytes`` and
    ``write(offset, data) -> int``; ``SYMLINK`` inodes carry ``target``.

    File data is copy-on-write.  ``data`` holds immutable ``bytes``,
    which machines built from the same image may share (the same object
    in every machine), until the first :meth:`write` or :meth:`truncate`
    swaps in a ``bytearray`` this inode owns.  Those two methods are the
    only in-place writers; set-up code that assigns or appends
    (``data += ...``) to ``bytes`` rebinds only its own inode.
    """

    def __init__(self, itype: InodeType, *, mode: int = 0o644, uid: int = 0,
                 gid: int = 0, driver: Optional[object] = None,
                 target: str = "", now: int = 0) -> None:
        self.ino = next(_ino_counter)
        self.type = itype
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.nlink = 1
        self.atime = self.mtime = self.ctime = now
        self.data = b"" if itype is InodeType.FILE else None
        self.children: Optional[Dict[str, "Inode"]] = (
            {} if itype is InodeType.DIR else None)
        self.driver = driver
        self.target = target
        #: Dynamic content generator for synthetic files (procfs): a
        #: zero-argument callable returning bytes, evaluated per read.
        self.generator: Optional[Callable[[], bytes]] = None

    @property
    def size(self) -> int:
        """Apparent size in bytes."""
        if self.type is InodeType.FILE:
            assert self.data is not None
            return len(self.data)
        if self.type is InodeType.DIR:
            assert self.children is not None
            return len(self.children)
        if self.type is InodeType.SYMLINK:
            return len(self.target)
        return 0

    def stat(self) -> StatResult:
        """Produce the stat structure for this inode."""
        return StatResult(
            ino=self.ino, type=self.type, mode=self.mode, uid=self.uid,
            gid=self.gid, size=self.size, nlink=self.nlink,
            atime=self.atime, mtime=self.mtime, ctime=self.ctime)

    def require_dir(self) -> "Inode":
        """Return self or raise ENOTDIR."""
        if self.type is not InodeType.DIR:
            raise GuestOSError(Errno.ENOTDIR, "not a directory")
        return self

    def content(self) -> bytes:
        """Readable bytes of a FILE inode (evaluating generators)."""
        if self.generator is not None:
            return self.generator()
        if self.type is not InodeType.FILE or self.data is None:
            raise GuestOSError(Errno.EINVAL, "inode has no content")
        return bytes(self.data)

    def write(self, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset``, zero-filling any gap past the
        end; returns the bytes written.  The first write copies shared
        content into a bytearray this inode owns."""
        if type(self.data) is not bytearray:
            if self.type is not InodeType.FILE:
                raise GuestOSError(Errno.EINVAL, "not writable")
            self.data = bytearray(self.data)
        buf = self.data
        end = offset + len(data)
        if len(buf) < end:
            buf.extend(bytes(end - len(buf)))
        buf[offset:end] = data
        return len(data)

    def truncate(self) -> None:
        """Drop this FILE inode's content (``O_TRUNC``)."""
        if self.type is not InodeType.FILE:
            raise GuestOSError(Errno.EINVAL, "not a regular file")
        self.data = bytearray()

    def read(self, offset: int, length: int) -> bytes:
        """Up to ``length`` readable bytes at ``offset``, copying only
        those (not the whole file first, as slicing :meth:`content`
        would)."""
        if self.generator is not None:
            return self.generator()[offset:offset + length]
        if self.type is not InodeType.FILE or self.data is None:
            raise GuestOSError(Errno.EINVAL, "inode has no content")
        return bytes(self.data[offset:offset + length])
