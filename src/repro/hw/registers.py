"""Architectural register file and MSRs.

Only the registers the paper's mechanisms touch are modelled by name:

* general-purpose registers used for parameter passing (``rax``..``r9``),
* the caller-WID register CrossOver delivers to callees (``rdi`` by our
  calling convention),
* ``rip`` (the entry-point jump target of a world call),
* MSRs: the VMFUNC EPTP-list address MSR and the world-table base MSR
  added by the CrossOver extension (Figure 5).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SimulationError

GPR_NAMES = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rip",
)

#: MSR index of the VMFUNC EPTP-list address (VMCS field in real VT-x;
#: modelled as an MSR-like slot for simplicity).
MSR_EPTP_LIST = 0x0000_2024

#: MSR index of the CrossOver world-table base (new in Figure 5b).
MSR_WORLD_TABLE = 0x0000_2100


class RegisterFile:
    """Named general-purpose registers plus an MSR map."""

    def __init__(self) -> None:
        #: GPR name -> value.  The world-call datapath reads and writes
        #: it directly; everything else goes through :meth:`read` and
        #: :meth:`write`, which reject unknown names.
        self.gprs: Dict[str, int] = {name: 0 for name in GPR_NAMES}
        self._msrs: Dict[int, int] = {}

    def read(self, name: str) -> int:
        """Read a general-purpose register by name."""
        try:
            return self.gprs[name]
        except KeyError:
            raise SimulationError(f"unknown register {name!r}") from None

    def write(self, name: str, value: int) -> None:
        """Write a general-purpose register by name."""
        if name not in self.gprs:
            raise SimulationError(f"unknown register {name!r}")
        self.gprs[name] = value

    def read_msr(self, index: int) -> int:
        """Read an MSR (0 when never written)."""
        return self._msrs.get(index, 0)

    def write_msr(self, index: int, value: int) -> None:
        """Write an MSR."""
        self._msrs[index] = value

    def snapshot(self) -> Dict[str, int]:
        """Copy of all GPR values (used when saving world-call state)."""
        return dict(self.gprs)

    def restore(self, values: Dict[str, int]) -> None:
        """Restore GPRs from a snapshot."""
        gprs = self.gprs
        if values.keys() <= gprs.keys():
            # A snapshot (or subset) restores as one bulk update — this
            # sits on the world-call hot path, where the per-name
            # validation of :meth:`write` is pure overhead.
            gprs.update(values)
            return
        for name, value in values.items():
            self.write(name, value)
