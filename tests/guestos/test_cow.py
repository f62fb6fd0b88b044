"""Copy-on-write file data: machines built from one image share their
file bytes, and a write through any writer changes only its own
machine's file."""

import dataclasses
import gc
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.guestos.fs.inode import InodeType
from repro.systems.fuse import FuseDaemon
from repro.testbed import build_two_vm_machine, enter_vm_kernel
from repro.workloads import utilities
from repro.workloads.utilities import (
    DEFAULT_SCALES,
    prepare_inspection_environment,
)

#: A small image: the sharing does not depend on the scale.
_SCALES = {"procs": 3, "utmp_entries": 40, "words_kib": 4, "bin_files": 3}

WORDS = "/usr/share/dict/words"
UTMP = "/var/run/utmp"
BIN0 = "/bin/tool0000"
BIN1 = "/bin/tool0001"
FUSE_FILE = "/words"
PATHS = (WORDS, UTMP, BIN0, BIN1, "/etc/passwd")


def _file_nodes(node):
    """Every FILE inode under ``node``."""
    for child in (node.children or {}).values():
        if child.type is InodeType.FILE:
            yield child
        elif child.type is InodeType.DIR:
            yield from _file_nodes(child)


def _machine(shared=True):
    """A prepared inspected kernel plus a writer process and a FUSE
    daemon serving one file seeded from the image's words.  With
    ``shared=False`` every file owns a private copy of its bytes: the
    reference the shared machines must be indistinguishable from."""
    machine, vm1, k1, vm2, kernel = build_two_vm_machine()
    prepare_inspection_environment(kernel, _SCALES)
    enter_vm_kernel(machine, vm2)
    daemon = FuseDaemon(kernel.spawn("fused"))
    fuse_node = daemon.fs.create(daemon.fs.root(), FUSE_FILE.strip("/"),
                                 InodeType.FILE)
    fuse_node.data = kernel.vfs.resolve(WORDS)[1].data
    nodes = list(_file_nodes(kernel.rootfs.root()))
    nodes.append(fuse_node)
    if not shared:
        for node in nodes:
            node.data = bytearray(node.data)
    return SimpleNamespace(kernel=kernel, proc=kernel.spawn("writer"),
                           daemon=daemon)


def _sys(m, name, *args, **kwargs):
    return m.kernel.syscalls.invoke(m.proc, name, *args, **kwargs)


def _sys_write(m):
    fd = _sys(m, "open", WORDS, "w")
    _sys(m, "lseek", fd, 5)
    _sys(m, "write", fd, b"XYZ")
    _sys(m, "close", fd)


def _sys_pwrite(m):
    fd = _sys(m, "open", UTMP, "w")
    size = _sys(m, "stat", UTMP).size
    _sys(m, "pwrite", fd, b"tail", size + 10)    # zero-fills the gap
    _sys(m, "close", fd)


def _o_trunc(m):
    fd = _sys(m, "open", BIN0, "w", trunc=True)
    _sys(m, "write", fd, b"#!")
    _sys(m, "close", fd)


def _fuse_write(m):
    handle = m.daemon.serve("open", FUSE_FILE, "w", False)
    m.daemon.serve("write", handle, b"fuse")
    m.daemon.serve("close", handle)


def _setup_append(m):
    m.kernel.vfs.resolve(UTMP)[1].data += b"late session\n"


WRITERS = {"sys_write": _sys_write, "sys_pwrite": _sys_pwrite,
           "o_trunc": _o_trunc, "fuse_write": _fuse_write,
           "setup_append": _setup_append}


def _view(m):
    """What a reader sees of every checked file: ``read``, ``stat``
    (without the machine-specific inode number) and ``content()``."""
    view = {}
    for path in PATHS:
        fd = _sys(m, "open", path, "r")
        data = _sys(m, "read", fd, 1 << 20)
        _sys(m, "close", fd)
        stat = dataclasses.replace(_sys(m, "stat", path), ino=0)
        view[path] = (data, stat, m.kernel.vfs.resolve(path)[1].content())
    handle = m.daemon.serve("open", FUSE_FILE, "r", False)
    data = m.daemon.serve("read", handle, 1 << 20)
    m.daemon.serve("close", handle)
    stat = dataclasses.replace(m.daemon.serve("stat", FUSE_FILE), ino=0)
    view[FUSE_FILE] = (data, stat, m.daemon._resolve(FUSE_FILE).content())
    return view


class TestSharing:
    def test_machines_from_one_image_share_file_objects(self):
        a, b = _machine(), _machine()
        for path in PATHS:
            assert (a.kernel.vfs.resolve(path)[1].data
                    is b.kernel.vfs.resolve(path)[1].data), path
        stub = a.kernel.vfs.resolve(BIN0)[1].data
        assert stub is a.kernel.vfs.resolve(BIN1)[1].data
        assert type(stub) is bytes

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_write_changes_only_its_own_machine(self, writer):
        a, b = _machine(), _machine()
        written, untouched = _machine(shared=False), _machine(shared=False)
        WRITERS[writer](a)
        WRITERS[writer](written)
        assert _view(a) == _view(written)
        assert _view(b) == _view(untouched)
        assert _view(a) != _view(b)
        # The shared image itself is unchanged for later machines.
        assert _view(_machine()) == _view(untouched)
        assert utilities._words_blob(_SCALES["words_kib"]) == \
            utilities._words_blob.__wrapped__(_SCALES["words_kib"])
        assert utilities._utmp_blob(_SCALES["utmp_entries"]) == \
            utilities._utmp_blob.__wrapped__(_SCALES["utmp_entries"])

    def test_second_write_stays_in_place(self):
        m = _machine()
        _sys_write(m)
        node = m.kernel.vfs.resolve(WORDS)[1]
        owned = node.data
        assert type(owned) is bytearray
        _sys_write(m)
        assert node.data is owned


class TestMemory:
    def test_prepared_machine_footprint(self):
        """One prepared Table-5 machine costs its own state, not another
        copy of the image's file bytes (2.3 MB with private copies)."""
        warm = build_two_vm_machine()
        prepare_inspection_environment(warm[4])
        del warm
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            machine = build_two_vm_machine()
            prepare_inspection_environment(machine[4], DEFAULT_SCALES)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 1_600_000, growth
