"""Extended page tables (second-stage translation: GPA -> HPA).

Each VM owns at least one :class:`EPT`.  The VMFUNC mechanism (Section
4.1) additionally requires an :class:`EPTPList`: an array of EPT
pointers set up by the hypervisor, indexable by the guest via
``VMFUNC(0, index)`` without causing a VM exit.  The hypervisor keeps
one such list and every VM's VMCS points at it.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import EPTViolation, SimulationError
from repro.hw.mem import page_number, page_offset, PAGE_MASK, PAGE_SIZE
from repro.hw.mem import bump_mapping_epoch

_eptp_counter = itertools.count(0x8000)


class EPTEntry:
    """An EPT entry mapping one guest-physical page to a host frame.

    Treated as immutable: entries are shared between EPTs
    (``clone_mappings``), so never mutate one in place — remap instead.
    """

    __slots__ = ("hpa", "readable", "writable", "executable")

    def __init__(self, hpa: int, readable: bool = True, writable: bool = True,
                 executable: bool = True) -> None:
        self.hpa = hpa
        self.readable = readable
        self.writable = writable
        self.executable = executable

    def permits(self, *, write: bool, execute: bool) -> bool:
        """Whether the access is allowed by the EPT permissions."""
        if not self.readable and not write and not execute:
            return False
        if write and not self.writable:
            return False
        if execute and not self.executable:
            return False
        return True


class EPT:
    """One extended page table; ``eptp`` stands in for its root pointer."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.eptp = next(_eptp_counter) << 12
        self._entries: Dict[int, EPTEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def map(self, gpa: int, hpa: int, *, readable: bool = True,
            writable: bool = True, executable: bool = True) -> None:
        """Map the guest-physical page at ``gpa`` to the host frame at ``hpa``."""
        if (gpa | hpa) & PAGE_MASK:
            raise SimulationError("EPT map() requires page-aligned addresses")
        self._entries[gpa >> 12] = EPTEntry(
            hpa=hpa, readable=readable, writable=writable, executable=executable)
        bump_mapping_epoch()

    def unmap(self, gpa: int) -> None:
        """Remove the mapping for the guest-physical page at ``gpa``."""
        gfn = page_number(gpa)
        if gfn not in self._entries:
            raise SimulationError(f"EPT unmap of unmapped GPA {gpa:#x}")
        del self._entries[gfn]
        bump_mapping_epoch()

    def entry(self, gpa: int) -> Optional[EPTEntry]:
        """The EPT entry covering ``gpa``, or ``None``."""
        return self._entries.get(page_number(gpa))

    def entries(self) -> Iterator[Tuple[int, EPTEntry]]:
        """Iterate ``(gfn, entry)`` pairs."""
        return iter(self._entries.items())

    def translate(self, gpa: int, *, write: bool = False,
                  execute: bool = False) -> int:
        """Translate ``gpa`` to a host-physical address or raise EPTViolation."""
        entry = self._entries.get(page_number(gpa))
        if entry is None:
            raise EPTViolation(gpa, write=write, reason="not-present")
        if not entry.permits(write=write, execute=execute):
            raise EPTViolation(gpa, write=write, reason="protection")
        return entry.hpa + page_offset(gpa)

    def span(self, gpa: int, length: int, *, write: bool = False
             ) -> Iterator[Tuple[int, int]]:
        """Yield ``(hpa, chunk_len)`` pieces covering ``[gpa, gpa+length)``."""
        addr = gpa
        remaining = length
        while remaining > 0:
            hpa = self.translate(addr, write=write)
            chunk = min(remaining, PAGE_SIZE - page_offset(addr))
            yield hpa, chunk
            addr += chunk
            remaining -= chunk

    def clone_mappings(self, other: "EPT") -> None:
        """Copy every mapping of ``other`` into this EPT."""
        for gfn, entry in other.entries():
            self._entries[gfn] = entry
        bump_mapping_epoch()


class EPTPList:
    """The EPTP list VMFUNC(0) indexes into (Section 4.1).

    The hypervisor writes entries; the guest can only *select* one by
    index.  An unset index selected by the guest raises a
    :class:`~repro.errors.VMFuncFault`, which in turn becomes a VM exit —
    that check is done by the VMFUNC logic, not here.
    """

    def __init__(self, size: int = 512) -> None:
        if size <= 0:
            raise SimulationError("EPTP list size must be positive")
        self.size = size
        self._slots: List[Optional[EPT]] = [None] * size

    def set(self, index: int, ept: EPT) -> None:
        """Install ``ept`` at ``index`` (hypervisor-only operation)."""
        self._check_index(index)
        self._slots[index] = ept

    def clear(self, index: int) -> None:
        """Remove the entry at ``index``."""
        self._check_index(index)
        self._slots[index] = None

    def get(self, index: int) -> Optional[EPT]:
        """The EPT at ``index``, or ``None`` when the slot is empty."""
        self._check_index(index)
        return self._slots[index]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise SimulationError(
                f"EPTP list index {index} out of range [0, {self.size})")
