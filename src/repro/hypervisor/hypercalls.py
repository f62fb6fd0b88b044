"""Hypercall numbers and the dispatch table.

Hypercalls are the guest-kernel -> hypervisor control interface
(``vmcall``).  The paper's mechanisms need only a handful: querying VM
IDs (Section 4.3), creating/destroying worlds (Section 3.3), setting up
inter-VM shared memory, and arming the callee-DoS timeout (Section 3.4).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import GuestOSError


class Hypercall:
    """Hypercall numbers."""

    QUERY_VMS = 0x01          # -> list of (vm_id, name)
    QUERY_SELF = 0x02         # -> caller's own vm_id
    CREATE_WORLD = 0x10       # register a world; returns WID
    DESTROY_WORLD = 0x11      # unregister a world
    SETUP_SHARED_MEM = 0x20   # map a shared region into two VMs
    SETUP_CROSSVM = 0x21      # prepare §4.3 cross-VM syscall plumbing
    SET_TIMEOUT = 0x30        # arm the world-call watchdog
    CANCEL_TIMEOUT = 0x31     # disarm the watchdog


class HypercallTable:
    """Number -> handler mapping owned by the hypervisor."""

    def __init__(self) -> None:
        self._handlers: Dict[int, Callable] = {}

    def register(self, number: int, handler: Callable) -> None:
        """Install a handler for hypercall ``number``."""
        self._handlers[number] = handler

    def clear(self) -> None:
        """Remove every handler."""
        self._handlers.clear()

    def dispatch(self, number: int, *args, **kwargs):
        """Invoke the handler for ``number``; ENOSYS-style error if none."""
        handler = self._handlers.get(number)
        if handler is None:
            raise GuestOSError(38, f"unknown hypercall {number:#x}")
        return handler(*args, **kwargs)

    def __contains__(self, number: int) -> bool:
        return number in self._handlers
