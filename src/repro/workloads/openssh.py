"""The partitioned OpenSSH server experiment (Table 6).

An scp client in the host copies a cached file from the server.  Three
configurations:

* ``native``     — the whole server runs in one guest VM: per block,
  read the file, encrypt, send to the host client;
* ``crossover``  — the server's user-land code and key/file-touching
  syscalls run in a *private* VM; network syscalls are redirected to the
  *public* VM over VMFUNC cross-world calls (the static partition the
  paper derives with CIL);
* ``baseline``   — same partition, but each redirected syscall bounces
  through the hypervisor (inject + schedule), and the peer VM's load
  makes scheduling delay grow.

Modelled per-block costs beyond the mechanisms themselves:

* symmetric crypto at :data:`CRYPTO_CYCLES_PER_BYTE` (no AES-NI on the
  modelled path, as in the paper's OpenSSL build);
* a :data:`CACHE_REFILL_CYCLES` locality penalty per cross-world
  excursion — the cache/TLB pollution the paper's Section 2 calls
  "locality loss".  It applies to *both* partitioned variants (the
  switch pollutes either way); the hypervisor variant additionally pays
  the scheduling/injection path.

Long transfers are simulated exactly for :data:`SAMPLE_BLOCKS` blocks
and extrapolated by charging the measured per-block cost for the rest
(documented, deterministic, and verified by tests to match an exact run
on small sizes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.crossvm import CrossVMSyscallMechanism
from repro.errors import ConfigurationError, SimulationError
from repro.guestos.fs.inode import InodeType
from repro.guestos.net import HostEndpoint
from repro.hw.costs import Cost, us
from repro.systems.proxos import Proxos

#: scp application write granularity.
BLOCK_SIZE = 1024

#: Crypto cost (cycles/byte) — calibrated so the native column sits
#: near 64 MB/s at 3.4 GHz together with the TCP path costs.
CRYPTO_CYCLES_PER_BYTE = 30

#: Locality penalty per cross-world excursion (cycles).
CACHE_REFILL_CYCLES = 6500

#: Redirected syscalls per block: the data write plus two bookkeeping
#: calls (clock/select-style) OpenSSH issues around each write.
CALLS_PER_BLOCK = 3

#: Blocks simulated exactly before extrapolation kicks in.
SAMPLE_BLOCKS = 48

#: The served file's content: enough real bytes for every exactly
#: simulated block (the extrapolated tail reuses the measured per-block
#: cost).  One object, shared by every machine's inode until a write.
_PAYLOAD = (bytes(range(256)) * (BLOCK_SIZE // 256)) * (SAMPLE_BLOCKS + 1)

#: Page-cache pressure: extra cycles/byte on the native read path once
#: the working set outgrows the modelled LLC+page-cache sweet spot.
def _cache_pressure(size_mb: int) -> float:
    if size_mb <= 256:
        return 0.0
    if size_mb >= 1024:
        return 10.0
    return 10.0 * (size_mb - 256) / (1024 - 256)


@dataclass
class TransferResult:
    """Outcome of one scp transfer."""

    mode: str
    size_mb: int
    cycles: int
    blocks: int
    sampled_blocks: int

    @property
    def seconds(self) -> float:
        return us(self.cycles) / 1e6

    @property
    def throughput_mb_s(self) -> float:
        """End-to-end MB/s of the transfer."""
        return self.size_mb / self.seconds if self.seconds else float("inf")


class OpenSSHTransfer:
    """One configured OpenSSH server + host scp client."""

    def __init__(self, machine, private_kernel, public_kernel, *,
                 mode: str, client_port: int = 2200) -> None:
        if mode not in ("native", "crossover", "baseline"):
            raise ConfigurationError(f"unknown mode {mode!r}")
        self.machine = machine
        self.private_kernel = private_kernel
        self.public_kernel = public_kernel
        self.mode = mode
        self.client = HostEndpoint(machine.network, client_port,
                                   "scp-client")
        self._ready = False
        self._redirect = None      # callable(name, *args) for send path

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def setup(self, size_mb: int) -> None:
        """Create the served file (cached in the private VM) and the
        network plumbing."""
        from repro.testbed import enter_vm_kernel

        machine = self.machine
        serving_kernel = (self.private_kernel if self.mode != "native"
                          else self.public_kernel)
        # The file is "already cached"; we create a 1-block prototype and
        # account length analytically (a 1 GiB bytearray per run would
        # only slow the simulator, not change any charge).
        root = serving_kernel.rootfs.root()
        tmp = serving_kernel.rootfs.lookup(root, "tmp")
        assert tmp.children is not None
        if "payload" not in tmp.children:
            node = serving_kernel.rootfs.create(tmp, "payload",
                                                InodeType.FILE)
            node.data = _PAYLOAD
        self.size_mb = size_mb

        if self.mode == "native":
            enter_vm_kernel(machine, self.public_kernel.vm)
            self.app = self.public_kernel.spawn("sshd")
            self.public_kernel.enter_user(self.app)
            self.sock_fd = self.app.syscall("socket")
            self.app.syscall("connect", self.sock_fd, "host",
                             self.client.port)
            self.file_fd = self.app.syscall("open", "/tmp/payload", "r")
            self._ready = True
            return

        # Partitioned: app (sshd) lives in the private VM; the public VM
        # executor owns the client-facing socket.
        enter_vm_kernel(machine, self.public_kernel.vm)
        self.net_proc = self.public_kernel.spawn("sshd-net")
        self.public_kernel.enter_user(self.net_proc)
        self.sock_fd = self.net_proc.syscall("socket")
        self.net_proc.syscall("connect", self.sock_fd, "host",
                              self.client.port)

        enter_vm_kernel(machine, self.private_kernel.vm)
        self.app = self.private_kernel.spawn("sshd-priv")
        self.private_kernel.enter_user(self.app)
        self.file_fd = self.app.syscall("open", "/tmp/payload", "r")
        self.private_kernel.to_kernel("partition setup")

        if self.mode == "crossover":
            mech = CrossVMSyscallMechanism(machine)
            private_vm = self.private_kernel.vm
            public_vm = self.public_kernel.vm
            mech.setup_pair(private_vm, public_vm)
            net_proc = self.net_proc

            # Locals, not ``self``: the closure is stored on ``self``.
            def redirect(name, *args):
                return mech.call(private_vm, public_vm, name, *args,
                                 executor=net_proc)
        else:
            proxos = Proxos(machine, self.private_kernel.vm,
                            self.public_kernel.vm, optimized=False)
            proxos.setup()
            proxos.stub = self.net_proc   # the stub owns the socket
            # The public VM is busy serving other tenants: scheduling a
            # redirected call queues behind one runnable peer.
            machine.hypervisor.scheduler.set_load(self.public_kernel.vm, 1)
            redirect = proxos._redirect

        self._redirect = redirect
        self._ready = True

    # ------------------------------------------------------------------
    # the transfer
    # ------------------------------------------------------------------

    def run(self) -> TransferResult:
        """Copy the whole file; returns cycles and throughput."""
        if not self._ready:
            raise SimulationError("setup() must run first")
        cpu = self.machine.cpu
        total_blocks = self.size_mb * 1024 * 1024 // BLOCK_SIZE
        sample = min(SAMPLE_BLOCKS, total_blocks)
        pressure = _cache_pressure(self.size_mb)

        start = cpu.perf.cycles
        for _ in range(sample):
            self._one_block(pressure)
        per_block = (cpu.perf.cycles - start) / sample
        remaining = total_blocks - sample
        if remaining > 0:
            cpu.perf.charge("extrapolated_blocks",
                            Cost(0, int(per_block * remaining)))
        return TransferResult(
            mode=self.mode, size_mb=self.size_mb,
            cycles=cpu.perf.cycles - start, blocks=total_blocks,
            sampled_blocks=sample)

    def _one_block(self, pressure: float) -> None:
        cpu = self.machine.cpu
        if self.mode == "native":
            self.app.syscall("read", self.file_fd, BLOCK_SIZE)
            cpu.work(int(BLOCK_SIZE * (CRYPTO_CYCLES_PER_BYTE + pressure)),
                     BLOCK_SIZE // 4, kind="crypto")
            self.app.syscall("send", self.sock_fd,
                             b"E" * BLOCK_SIZE)
            return

        # Partitioned: file + crypto in the private VM (locally), then
        # the redirected network calls.
        kernel = self.private_kernel
        kernel.execute_syscall(self.app, "read", self.file_fd, BLOCK_SIZE)
        cpu.work(int(BLOCK_SIZE * (CRYPTO_CYCLES_PER_BYTE + pressure)),
                 BLOCK_SIZE // 4, kind="crypto")
        assert self._redirect is not None
        self._redirect("time")
        self._redirect("send", self.sock_fd, b"E" * BLOCK_SIZE)
        self._redirect("time")
        cpu.perf.charge("cache_refill",
                        Cost(0, CACHE_REFILL_CYCLES * CALLS_PER_BLOCK))
