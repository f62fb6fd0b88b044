"""The six Table-5 utility tools.

Each utility is implemented against the real simulated filesystems
(/proc, /var/run/utmp, /usr/share/dict/words, /bin) with calibrated
user-level compute, and produces genuine output parsed from what it
read — so redirected runs are verified to return the *target* VM's
state, not just to cost the right amount.

"Specifically, we redirected all the system calls of these utilities to
another VM" (Section 7.1.2) — the caller passes a surface whose
syscalls either run natively or are redirected by a case-study system.

:func:`prepare_inspection_environment` populates the VM being inspected
(processes, logged-in users, files); scales default to values that land
the guest-native column near the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List

from repro.errors import GuestOSError
from repro.guestos.fs.inode import InodeType
from repro.guestos.kernel import Kernel

#: Default environment scale (chosen so guest-native runtimes land near
#: Table 5's native column with the calibrated syscall costs).
DEFAULT_SCALES = {
    "procs": 1670,          # processes visible in /proc
    "utmp_entries": 2000,   # logged-in sessions in /var/run/utmp
    "words_kib": 800,       # size of /usr/share/dict/words
    "bin_files": 845,       # files in /bin for ls -l
}

#: Per-utility user-level compute (cycles), calibrated against the
#: guest-native column of Table 5.
USER_COMPUTE = {
    "pstree": 4600,     # per process: tree insertion + render
    "w": 1630,          # per process: parse status, match tty
    "grep": 2450,       # per KiB: regex scan
    "users": 3200,      # per utmp chunk: tokenize + dedup
    "uptime": 850,      # per utmp record: session accounting
    "ls": 1300,         # per entry: format one -l row
}


#: The content of every /bin file: a 64-byte ELF header stub, one object
#: shared by all of them.
_ELF_STUB = b"\x7fELF" + bytes(60)


@lru_cache(maxsize=8)
def _utmp_blob(entries: int) -> bytes:
    """The synthetic /var/run/utmp content for a session count.

    Every machine in a sweep is populated identically, so the blob is
    built once per scale and every machine's inode holds this one
    object until its first write (file data is copy-on-write)."""
    records = []
    for i in range(entries):
        user = f"user{i % 37:02d}"
        records.append(
            f"{user:<8} pts/{i % 64:<3} 2015-06-13 09:{i % 60:02d}\n".encode())
    return b"".join(records)


@lru_cache(maxsize=8)
def _words_blob(words_kib: int) -> bytes:
    """The synthetic /usr/share/dict/words content for a size scale,
    shared like :func:`_utmp_blob`'s."""
    line = b"abcdefgh%05d\n"
    count = words_kib * 1024 // len(line % 0)
    return b"".join(line % i for i in range(count))


def prepare_inspection_environment(kernel: Kernel,
                                   scales: Dict[str, int] = DEFAULT_SCALES
                                   ) -> None:
    """Populate the inspected VM: processes, utmp sessions, /bin files.

    Must run before the CPU needs to be anywhere specific — it touches
    only kernel data structures, never the CPU.  The daemons never run:
    each takes a pid and a CR3 root and shows up in ``/proc``, but gets
    no page table, host frame or EPT entry (``Kernel.spawn`` builds an
    address space only on first use), so this allocates no host frames.
    """
    for i in range(scales["procs"]):
        uid = 1000 + (i % 3) if i % 4 else 0
        kernel.spawn(f"daemon-{i:04d}", parent=kernel.init, uid=uid)

    root = kernel.rootfs.root()
    var = kernel.rootfs.lookup(root, "var")
    run = kernel.rootfs.lookup(var, "run")
    utmp = kernel.rootfs.lookup(run, "utmp")
    utmp.data = _utmp_blob(scales["utmp_entries"])

    usr = kernel.rootfs.lookup(root, "usr")
    share = kernel.rootfs.lookup(usr, "share")
    dictdir = kernel.rootfs.lookup(share, "dict")
    words = kernel.rootfs.lookup(dictdir, "words")
    words.data = _words_blob(scales["words_kib"])

    bindir = kernel.rootfs.lookup(root, "bin")
    assert bindir.children is not None
    for i in range(scales["bin_files"]):
        name = f"tool{i:04d}"
        if name not in bindir.children:
            node = kernel.rootfs.create(bindir, name, InodeType.FILE,
                                        mode=0o755)
            node.data = _ELF_STUB


@dataclass
class UtilityRun:
    """Result of one utility execution."""

    name: str
    output: str
    syscalls: int


def _pstree(surface) -> UtilityRun:
    """Build the process tree from /proc/<pid>/stat."""
    syscalls = 0
    entries = surface.syscall("readdir", "/proc")
    syscalls += 1
    children: Dict[int, List[str]] = {}
    for entry in entries:
        if not entry.isdigit():
            continue
        surface.syscall("readdir", f"/proc/{entry}")
        fd = surface.syscall("open", f"/proc/{entry}/stat", "r")
        data = surface.syscall("read", fd, 256)
        surface.syscall("close", fd)
        syscalls += 4
        fields = data.decode().split()
        name = fields[1].strip("()")
        ppid = int(fields[3])
        children.setdefault(ppid, []).append(name)
        surface.compute(USER_COMPUTE["pstree"])
    lines = [f"{ppid}-+-" + "---".join(sorted(names)[:4])
             for ppid, names in sorted(children.items())]
    return UtilityRun("pstree", "\n".join(lines), syscalls)


def _w(surface) -> UtilityRun:
    """Who is logged in and what they are doing (utmp + /proc scan)."""
    syscalls = 0
    fd = surface.syscall("open", "/var/run/utmp", "r")
    syscalls += 1
    raw = bytearray()
    while True:
        chunk = surface.syscall("read", fd, 4096)
        syscalls += 1
        if not chunk:
            break
        raw += chunk
    surface.syscall("close", fd)
    syscalls += 1
    sessions = raw.decode().count("\n")

    entries = surface.syscall("readdir", "/proc")
    syscalls += 1
    user_procs = 0
    for entry in entries:
        if not entry.isdigit():
            continue
        fd = surface.syscall("open", f"/proc/{entry}/status", "r")
        data = surface.syscall("read", fd, 256)
        surface.syscall("close", fd)
        syscalls += 3
        if b"Uid:\t10" in data:
            user_procs += 1
        surface.compute(USER_COMPUTE["w"])
    output = f"{sessions} sessions, {user_procs} user processes"
    return UtilityRun("w", output, syscalls)


def _grep(surface) -> UtilityRun:
    """Scan /usr/share/dict/words for a pattern, 1 KiB at a time."""
    syscalls = 0
    fd = surface.syscall("open", "/usr/share/dict/words", "r")
    syscalls += 1
    matches = 0
    while True:
        chunk = surface.syscall("read", fd, 1024)
        syscalls += 1
        if not chunk:
            break
        matches += chunk.count(b"00042")
        surface.compute(USER_COMPUTE["grep"])
    surface.syscall("close", fd)
    syscalls += 1
    return UtilityRun("grep", f"{matches} matches", syscalls)


def _users(surface) -> UtilityRun:
    """Distinct logged-in users (naive small-chunk utmp reader)."""
    syscalls = 0
    fd = surface.syscall("open", "/var/run/utmp", "r")
    syscalls += 1
    raw = bytearray()
    while True:
        chunk = surface.syscall("read", fd, 96)
        syscalls += 1
        if not chunk:
            break
        raw += chunk
        surface.compute(USER_COMPUTE["users"])
    surface.syscall("close", fd)
    syscalls += 1
    names = sorted({line.split()[0] for line in raw.decode().splitlines()
                    if line.strip()})
    return UtilityRun("users", " ".join(names), syscalls)


def _uptime(surface) -> UtilityRun:
    """Uptime, load average, and session count."""
    syscalls = 0
    parts = []
    for path in ("/proc/uptime", "/proc/loadavg"):
        fd = surface.syscall("open", path, "r")
        data = surface.syscall("read", fd, 128)
        surface.syscall("close", fd)
        syscalls += 3
        parts.append(data.decode().strip())
    fd = surface.syscall("open", "/var/run/utmp", "r")
    syscalls += 1
    sessions = 0
    while True:
        chunk = surface.syscall("read", fd, 40)
        syscalls += 1
        if not chunk:
            break
        sessions += chunk.count(b"\n")
        surface.compute(USER_COMPUTE["uptime"])
    surface.syscall("close", fd)
    syscalls += 1
    output = f"up {parts[0].split()[0]}s, {sessions} users, load {parts[1]}"
    return UtilityRun("uptime", output, syscalls)


def _ls(surface) -> UtilityRun:
    """ls -l /bin: readdir plus one lstat per entry."""
    syscalls = 0
    entries = surface.syscall("readdir", "/bin")
    syscalls += 1
    rows = []
    for entry in entries:
        st = surface.syscall("lstat", f"/bin/{entry}")
        surface.syscall("access", f"/bin/{entry}")
        syscalls += 2
        rows.append(f"-rwxr-xr-x {st.nlink} root root {st.size:>8} {entry}")
        surface.compute(USER_COMPUTE["ls"])
    return UtilityRun("ls", "\n".join(rows), syscalls)


#: Name -> implementation.
UTILITIES: Dict[str, Callable] = {
    "pstree": _pstree,
    "w": _w,
    "grep": _grep,
    "users": _users,
    "uptime": _uptime,
    "ls": _ls,
}


def run_utility(name: str, surface) -> UtilityRun:
    """Run one utility over the given syscall surface."""
    impl = UTILITIES.get(name)
    if impl is None:
        raise KeyError(f"unknown utility {name!r}")
    return impl(surface)


def normalized_output(name: str, output: str) -> str:
    """Normalize a utility's output for cross-configuration comparison.

    Different configurations add their own scaffolding processes
    (benchmark drivers, cross-VM helpers) to the inspected VM and run at
    different simulated times; normalization keeps only the content the
    experiment actually compares: the inspected *environment*.
    """
    if name == "pstree":
        return "\n".join(
            line for line in output.splitlines() if "daemon-" in line)
    if name == "uptime":
        # Keep only the session count: elapsed time and load average
        # depend on when/where the tool ran, not on the inspected state.
        users = [part for part in output.split(",") if "users" in part]
        return users[0].strip() if users else output
    return output
