"""Guest page tables (first-stage translation: GVA -> GPA).

The model is a software page table: a map from virtual page number to a
:class:`PTE`.  Structure below the page level (PML4/PDPT/...) is not
modelled — what matters for the paper is *which address space* is
active (the CR3 value) and the permission/present semantics, both of
which are enforced faithfully.

Each page table carries a ``root`` token standing in for the physical
address of its top-level table; this is the value loaded into CR3.
Section 4.2's requirement that "the caller and callee must have the same
value in CR3" is modelled by giving helper page tables in different VMs
an identical, deliberately shared ``root`` value.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import PageFault, SimulationError
from repro.hw.mem import PAGE_MASK, PAGE_SIZE, page_number, page_offset
from repro.hw.mem import bump_mapping_epoch

_root_counter = itertools.count(0x1000)


def fresh_root() -> int:
    """Allocate a unique CR3 root token (page-aligned-looking)."""
    return next(_root_counter) << 12


class PTE:
    """A page-table entry mapping one virtual page to a guest-physical page.

    Treated as immutable: entries are shared freely between page tables
    (``clone_mappings``), so never mutate one in place — remap instead.
    """

    __slots__ = ("gpa", "writable", "user", "executable")

    def __init__(self, gpa: int, writable: bool = True, user: bool = True,
                 executable: bool = False) -> None:
        self.gpa = gpa
        self.writable = writable
        self.user = user
        self.executable = executable

    def permits(self, *, write: bool, user: bool, execute: bool) -> bool:
        """Whether an access with the given intents is allowed."""
        if write and not self.writable:
            return False
        if user and not self.user:
            return False
        if execute and not self.executable:
            return False
        return True


class PageTable:
    """One guest address space (the object CR3 points at)."""

    def __init__(self, label: str = "", root: Optional[int] = None) -> None:
        self.label = label
        self.root = root if root is not None else fresh_root()
        self._entries: Dict[int, PTE] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def map(self, gva: int, gpa: int, *, writable: bool = True,
            user: bool = True, executable: bool = False) -> None:
        """Map the page containing ``gva`` to the page containing ``gpa``."""
        if (gva | gpa) & PAGE_MASK:
            raise SimulationError("map() requires page-aligned addresses")
        self._entries[gva >> 12] = PTE(
            gpa=gpa, writable=writable, user=user, executable=executable)
        bump_mapping_epoch()

    def unmap(self, gva: int) -> None:
        """Remove the mapping for the page containing ``gva``."""
        vpn = page_number(gva)
        if vpn not in self._entries:
            raise SimulationError(f"unmap of unmapped GVA {gva:#x}")
        del self._entries[vpn]
        bump_mapping_epoch()

    def entry(self, gva: int) -> Optional[PTE]:
        """The PTE covering ``gva``, or ``None``."""
        return self._entries.get(page_number(gva))

    def entries(self) -> Iterator[Tuple[int, PTE]]:
        """Iterate ``(vpn, pte)`` pairs."""
        return iter(self._entries.items())

    def translate(self, gva: int, *, write: bool = False, user: bool = True,
                  execute: bool = False) -> int:
        """Translate ``gva`` to a guest-physical address or raise PageFault."""
        pte = self._entries.get(page_number(gva))
        if pte is None:
            raise PageFault(gva, write=write, user=user, reason="not-present")
        if not pte.permits(write=write, user=user, execute=execute):
            raise PageFault(gva, write=write, user=user, reason="protection")
        return pte.gpa + page_offset(gva)

    def span(self, gva: int, length: int, *, write: bool = False,
             user: bool = True) -> Iterator[Tuple[int, int]]:
        """Yield ``(gpa, chunk_len)`` pieces covering ``[gva, gva+length)``."""
        addr = gva
        remaining = length
        while remaining > 0:
            gpa = self.translate(addr, write=write, user=user)
            chunk = min(remaining, PAGE_SIZE - page_offset(addr))
            yield gpa, chunk
            addr += chunk
            remaining -= chunk

    def clone_mappings(self, other: "PageTable") -> None:
        """Copy every mapping of ``other`` into this table.

        PTEs are immutable, so sharing the entry objects is safe."""
        self._entries.update(other._entries)
        bump_mapping_epoch()
