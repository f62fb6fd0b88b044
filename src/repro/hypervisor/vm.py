"""Virtual machines.

A :class:`VirtualMachine` bundles everything the hypervisor tracks per
guest: the EPT (second-stage translation), the VMCS (pointing at the
hypervisor's shared EPTP directory VMFUNC indexes into), a
guest-physical address allocator, and the pending virtual-interrupt
queue.  The guest kernel object itself is attached by the guest-OS
layer (``vm.kernel``) — the hypervisor never looks inside it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.hw.ept import EPT, EPTPList
from repro.hw.mem import Frame, HostMemory, PAGE_SIZE, is_page_aligned
from repro.hw.vmx import VMCS

#: Guest-physical addresses below this are allocated per-VM; addresses at
#: or above it are "common" GPAs handed out by the hypervisor so that the
#: same GPA can be mapped in several VMs (Section 4.3's helper pages).
COMMON_GPA_BASE = 0x8000_0000


class VirtualMachine:
    """One guest VM as the hypervisor sees it."""

    def __init__(self, name: str, vm_id: int, memory: HostMemory,
                 eptp_list: EPTPList) -> None:
        self.name = name
        self.vm_id = vm_id
        self.memory = memory
        self.ept = EPT(label=name)
        self.eptp_list = eptp_list
        self.vmcs = VMCS(name, self.ept, self.eptp_list)
        self.kernel: Optional[object] = None   # attached by repro.guestos
        self.pending_virqs: List[Tuple[int, str]] = []
        self._next_gpa = PAGE_SIZE             # keep GPA 0 unmapped
        self._frames: Dict[int, Frame] = {}    # gpa -> frame (backing)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VirtualMachine {self.name} id={self.vm_id}>"

    # ------------------------------------------------------------------
    # guest-physical memory
    # ------------------------------------------------------------------

    def alloc_gpa(self) -> int:
        """Reserve the next private guest-physical page address."""
        gpa = self._next_gpa
        if gpa >= COMMON_GPA_BASE:
            raise SimulationError(f"VM {self.name} guest-physical space full")
        self._next_gpa += PAGE_SIZE
        return gpa

    def map_new_page(self, label: str = "") -> int:
        """Allocate a host frame, map it at a fresh private GPA, return
        the GPA."""
        gpa = self.alloc_gpa()
        frame = self.memory.allocate(f"{self.name}:{label}")
        self.ept.map(gpa, frame.hpa)
        self._frames[gpa] = frame
        return gpa

    def map_frame(self, gpa: int, frame: Frame, *, writable: bool = True,
                  executable: bool = True) -> None:
        """Map an existing host frame at ``gpa`` (shared/common pages)."""
        if not is_page_aligned(gpa):
            raise SimulationError("map_frame requires a page-aligned GPA")
        self.ept.map(gpa, frame.hpa, writable=writable, executable=executable)
        self._frames[gpa] = frame

    def unmap_gpa(self, gpa: int) -> None:
        """Remove the EPT mapping at ``gpa``."""
        self.ept.unmap(gpa)
        self._frames.pop(gpa, None)

    def frame_at(self, gpa: int) -> Frame:
        """The host frame backing ``gpa``."""
        frame = self._frames.get(gpa)
        if frame is None:
            raise SimulationError(
                f"no frame backs GPA {gpa:#x} in VM {self.name}")
        return frame

    # ------------------------------------------------------------------
    # virtual interrupts
    # ------------------------------------------------------------------

    def queue_virq(self, vector: int, detail: str = "") -> None:
        """Queue a virtual interrupt for delivery at the next VM entry."""
        self.pending_virqs.append((vector, detail))

    def take_virq(self) -> Optional[Tuple[int, str]]:
        """Pop the oldest pending virtual interrupt, if any."""
        if self.pending_virqs:
            return self.pending_virqs.pop(0)
        return None
