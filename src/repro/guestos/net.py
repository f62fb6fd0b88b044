"""Guest networking: a minimal TCP model over a virtual NIC.

Tahoma's baseline RPC rides a "point-to-point virtual network link"
(Section 6, case study 3), and the OpenSSH experiment (Table 6) moves
bulk data between a guest and the host.  This module models exactly what
those experiments need:

* stream sockets with listen/connect/accept/send/recv semantics,
* guest-side per-segment TCP stack traversal costs (MSS 1448),
* the virtualization cost of guest I/O: a virtio-style kick (VM exit +
  hypervisor handling + host bridge relay) per send, with segment costs
  batched (interrupt coalescing) so bulk transfers charge realistically,
* host endpoints (:class:`HostEndpoint`) for peers living in host
  userland.

Delivery is synchronous: ``send`` places data in the peer's receive
buffer and performs the sender-side transitions; the receiver charges
its own stack traversal when it calls ``recv``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import GuestOSError, SimulationError
from repro.guestos.fs.inode import Errno
from repro.guestos.pipe import WouldBlock
from repro.hw.vmx import ExitReason

#: TCP maximum segment size used for cost accounting.
MSS = 1448

_sock_ids = itertools.count(1)


def segments_for(nbytes: int) -> int:
    """Number of TCP segments a payload of ``nbytes`` occupies."""
    return max(1, (nbytes + MSS - 1) // MSS)


class Socket:
    """One endpoint of a (possibly not yet connected) stream socket."""

    def __init__(self, stack: "NetStack") -> None:
        self.sock_id = next(_sock_ids)
        self.stack = stack
        self.bound_port: Optional[int] = None
        self.listening = False
        self.accept_queue: list = []
        self.peer: Optional[Union["Socket", "HostEndpoint"]] = None
        self.rx = bytearray()
        self.open = True

    @property
    def address(self) -> str:
        """The VM name this socket lives in."""
        return self.stack.kernel.vm.name


class HostEndpoint:
    """A socket-like endpoint in host userland (e.g. Tahoma's manager
    or the scp client).  Cost charging for host-side operations is done
    by the code driving it (there is no guest kernel underneath)."""

    def __init__(self, network: "VirtualNetwork", port: int,
                 name: str = "host-endpoint") -> None:
        self.network = network
        self.port = port
        self.name = name
        self.rx = bytearray()
        self.peer: Optional[Socket] = None
        self.open = True
        network.bind_host(port, self)

    def take(self, length: int) -> bytes:
        """Drain up to ``length`` received bytes (no cost: host side
        charges are the caller's responsibility)."""
        data = bytes(self.rx[:length])
        del self.rx[:length]
        return data


class VirtualNetwork:
    """The machine-wide port namespace and delivery fabric."""

    def __init__(self) -> None:
        #: (address, port) -> listening Socket or HostEndpoint.
        self._listeners: Dict[Tuple[str, int], object] = {}
        #: Every connected pair, so :meth:`close` can unlink them.
        self._links: List[tuple] = []

    def bind(self, address: str, port: int, sock: Socket) -> None:
        """Claim (address, port) for a guest listener."""
        key = (address, port)
        if key in self._listeners:
            raise GuestOSError(Errno.EBUSY, f"port {port} in use on {address}")
        self._listeners[key] = sock

    def bind_host(self, port: int, endpoint: HostEndpoint) -> None:
        """Claim ("host", port) for a host endpoint."""
        key = ("host", port)
        if key in self._listeners:
            raise GuestOSError(Errno.EBUSY, f"host port {port} in use")
        self._listeners[key] = endpoint

    def lookup(self, address: str, port: int) -> object:
        """Find the listener at (address, port)."""
        target = self._listeners.get((address, port))
        if target is None:
            raise GuestOSError(Errno.ECONNREFUSED,
                               f"nothing listening at {address}:{port}")
        return target

    def unbind(self, address: str, port: int) -> None:
        """Release a port binding."""
        self._listeners.pop((address, port), None)

    def link(self, a, b) -> None:
        """Connect two endpoints to each other."""
        a.peer = b
        b.peer = a
        self._links.append((a, b))

    def close(self) -> None:
        """Release every binding and unlink every connected pair (see
        ``Machine.close``)."""
        self._listeners.clear()
        for a, b in self._links:
            a.peer = b.peer = None
        self._links.clear()


class NetStack:
    """Per-guest-kernel TCP stack model."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel

    @property
    def network(self) -> VirtualNetwork:
        """The machine-wide fabric."""
        return self.kernel.machine.network

    @property
    def cpu(self):
        return self.kernel.cpu

    # ------------------------------------------------------------------
    # socket lifecycle
    # ------------------------------------------------------------------

    def socket(self) -> Socket:
        """Create an unbound socket."""
        return Socket(self)

    def bind(self, sock: Socket, port: int) -> None:
        """Bind to a local port."""
        sock.bound_port = port
        self.network.bind(sock.address, port, sock)

    def listen(self, sock: Socket) -> None:
        """Start accepting connections."""
        if sock.bound_port is None:
            raise GuestOSError(Errno.EINVAL, "listen on unbound socket")
        sock.listening = True

    def connect(self, sock: Socket, address: str, port: int) -> None:
        """Three-way handshake with a listener at (address, port)."""
        target = self.network.lookup(address, port)
        # SYN / SYN-ACK / ACK: one stack traversal each way, one kick.
        self.cpu.charge("tcp_segment")
        borrowed = self._guest_io_kick(f"connect {address}:{port}")
        try:
            if isinstance(target, HostEndpoint):
                self.network.link(sock, target)
                return
            if not isinstance(target, Socket) or not target.listening:
                raise GuestOSError(Errno.ECONNREFUSED, "peer not listening")
            server_side = Socket(target.stack)
            self.network.link(server_side, sock)
            target.accept_queue.append(server_side)
        finally:
            self._reenter_guest("connect done", borrowed)

    def accept(self, sock: Socket) -> Socket:
        """Pop a pending connection (WouldBlock if none)."""
        if not sock.listening:
            raise GuestOSError(Errno.EINVAL, "accept on non-listener")
        if not sock.accept_queue:
            raise WouldBlock("no pending connections")
        self.cpu.charge("tcp_segment")
        return sock.accept_queue.pop(0)

    def close(self, sock) -> None:
        """Close a socket (releases its port binding, FIN to the peer)."""
        if isinstance(sock, Socket):
            sock.open = False
            if sock.bound_port is not None:
                self.network.unbind(sock.address, sock.bound_port)

    # ------------------------------------------------------------------
    # data transfer
    # ------------------------------------------------------------------

    def send(self, sock: Socket, data: bytes) -> int:
        """Guest-side send: per-segment stack costs + one coalesced
        virtio kick (VM exit, hypervisor relay, VM entry)."""
        if sock.peer is None:
            raise GuestOSError(Errno.EPIPE, "socket not connected")
        nseg = segments_for(len(data))
        cm = self.kernel.machine.cost_model
        self.cpu.perf.charge("tcp_segment", cm.tcp_segment.scaled(nseg))
        self.cpu.perf.charge("vnic_io", cm.vnic_io.scaled(nseg))
        borrowed = self._guest_io_kick(f"tx {len(data)}B")
        self.cpu.perf.charge("host_bridge", cm.host_bridge.scaled(nseg))
        peer = sock.peer
        peer.rx += data
        if isinstance(peer, Socket):
            # Notify the peer guest: hypervisor injects a virtual NIC IRQ
            # (delivered when that VM next runs).
            hypervisor = self.kernel.machine.hypervisor
            peer_vm = hypervisor.vm_by_name(peer.address)
            from repro.hypervisor.injection import VECTOR_NET_RX
            if borrowed:
                self.cpu.charge("virq_inject")
                peer_vm.queue_virq(VECTOR_NET_RX, "net rx")
            else:
                hypervisor.injector.inject(self.cpu, peer_vm, VECTOR_NET_RX,
                                           "net rx")
        self._reenter_guest("tx done", borrowed)
        return len(data)

    def recv(self, sock: Socket, length: int) -> bytes:
        """Guest-side receive: drains the rx buffer, charging stack
        traversal per segment actually consumed."""
        if not sock.rx:
            if sock.peer is None or (
                    isinstance(sock.peer, Socket) and not sock.peer.open):
                return b""
            raise WouldBlock("no data")
        data = bytes(sock.rx[:length])
        del sock.rx[:length]
        nseg = segments_for(len(data))
        cm = self.kernel.machine.cost_model
        self.cpu.perf.charge("tcp_segment", cm.tcp_segment.scaled(nseg))
        return data

    def send_from_host(self, cpu, endpoint_peer: Socket, data: bytes,
                       inject: bool = True) -> int:
        """Host-side send towards a guest socket: host stack traversal,
        bridge relay, and a virtual IRQ into the target VM."""
        nseg = segments_for(len(data))
        cm = self.kernel.machine.cost_model
        cpu.perf.charge("tcp_segment", cm.tcp_segment.scaled(nseg))
        cpu.perf.charge("host_bridge", cm.host_bridge.scaled(nseg))
        endpoint_peer.rx += data
        if inject:
            hypervisor = self.kernel.machine.hypervisor
            vm = hypervisor.vm_by_name(endpoint_peer.address)
            from repro.hypervisor.injection import VECTOR_NET_RX
            hypervisor.injector.inject(cpu, vm, VECTOR_NET_RX, "net rx")
        return len(data)

    # ------------------------------------------------------------------
    # virtualization plumbing
    # ------------------------------------------------------------------

    def _guest_io_kick(self, detail: str) -> bool:
        """Device-register write -> VM exit -> hypervisor handling.

        Returns True when the CPU is executing this kernel in a
        VMFUNC-*borrowed* context (the loaded VMCS belongs to another
        VM): real hardware keeps using the launching VM's VMCS across
        an EPTP switch, so swapping state through it would corrupt both
        VMs.  In that case the exit/entry *costs* are charged without
        touching architectural state.
        """
        cpu = self.cpu
        borrowed = (cpu.current_vmcs is None
                    or cpu.current_vmcs is not self.kernel.vm.vmcs)
        if borrowed:
            cm = self.kernel.machine.cost_model
            cpu.charge("vmexit", cm.vmexit)
            cpu.charge("vmexit_handle")
            cpu.trace.record("vmexit", cpu.world_label, "K(host)", detail)
        else:
            cpu.vmexit(ExitReason.IO, detail)
            cpu.charge("vmexit_handle")
        return borrowed

    def _reenter_guest(self, detail: str, borrowed: bool = False) -> None:
        vm = self.kernel.vm
        cpu = self.cpu
        if borrowed:
            cm = self.kernel.machine.cost_model
            cpu.charge("vmentry", cm.vmentry)
            cpu.trace.record("vmentry", "K(host)", cpu.world_label, detail)
            return
        cpu.vmentry(vm.vmcs, detail)
        self.kernel.machine.hypervisor.injector.deliver_pending(cpu, vm)
