"""The in-guest process scheduler (round-robin)."""

from __future__ import annotations

from typing import List, Optional, Set

from repro.errors import SimulationError
from repro.guestos.process import Process


class Scheduler:
    """Round-robin over ready processes; charges context-switch costs."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.runqueue: List[Process] = []
        #: ids of queued processes, so enqueue/dequeue membership checks
        #: stay O(1) as benchmark loops spawn thousands of processes.
        self._queued: Set[int] = set()
        self.switches = 0

    def enqueue(self, proc: Process) -> None:
        """Add a process to the run queue."""
        if id(proc) not in self._queued:
            self._queued.add(id(proc))
            self.runqueue.append(proc)

    def dequeue(self, proc: Process) -> None:
        """Remove a process from the run queue."""
        if id(proc) in self._queued:
            self._queued.discard(id(proc))
            self.runqueue.remove(proc)

    def pick_next(self, current: Optional[Process]) -> Optional[Process]:
        """Next runnable process after ``current`` (round-robin)."""
        candidates = [p for p in self.runqueue if p.alive and p is not current]
        if not candidates:
            return current if current is not None and current.alive else None
        if current in self.runqueue:
            idx = self.runqueue.index(current)
            ordered = self.runqueue[idx + 1:] + self.runqueue[:idx]
            for proc in ordered:
                if proc.alive:
                    return proc
        return candidates[0]

    def switch_to(self, proc: Process, detail: str = "") -> None:
        """Context-switch the CPU to ``proc`` (must be called at CPL 0)."""
        kernel = self.kernel
        if not proc.alive:
            raise SimulationError(f"cannot switch to dead process {proc!r}")
        previous = kernel.current
        if previous is proc:
            return
        cpu = kernel.cpu
        if not detail and cpu.trace.enabled:
            detail = f"{getattr(previous, 'name', '?')} -> {proc.name}"
        cpu.context_switch(proc.page_table, detail)
        if previous is not None and previous.alive:
            previous.state = "ready"
        proc.state = "running"
        kernel.current = proc
        self.switches += 1
