"""Performance counters.

A :class:`PerfCounters` instance hangs off every simulated CPU.  All
charging funnels through :meth:`PerfCounters.charge`, which accumulates
the two cost dimensions (instructions, cycles) plus per-event-kind
counts.  The benchmark harness snapshots counters around a workload and
reads the delta.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro import observatory as _observatory
from repro import observe
from repro.hw.costs import Cost, us

#: Event kinds that count as a *world switch* in the paper's terminology:
#: any ring crossing, host/guest mode switch, or address-space switch.
#: :meth:`PerfDelta.world_switches` and telemetry's
#: ``trace.world_switches`` counter both classify events with it.
WORLD_SWITCH_KINDS = frozenset({
    "syscall_trap", "sysret", "vmexit", "vmentry",
    "vmfunc_ept_switch", "world_call", "world_call_hw",
    "irq_deliver", "context_switch", "vm_schedule",
})


@dataclass
class PerfSnapshot:
    """An immutable point-in-time copy of the counters."""

    instructions: int
    cycles: int
    events: Dict[str, int]

    def delta(self, later: "PerfSnapshot") -> "PerfDelta":
        """Difference ``later - self`` (the cost of the bracketed region)."""
        events = Counter(later.events)
        events.subtract(self.events)
        return PerfDelta(
            instructions=later.instructions - self.instructions,
            cycles=later.cycles - self.cycles,
            events={k: v for k, v in events.items() if v},
        )


@dataclass
class PerfDelta:
    """Counter difference over a measured region."""

    instructions: int
    cycles: int
    events: Dict[str, int]

    @property
    def microseconds(self) -> float:
        """Cycle delta in microseconds at the modelled 3.4 GHz clock."""
        return us(self.cycles)

    def count(self, kind: str) -> int:
        """Number of events of ``kind`` in the region (0 if none)."""
        return self.events.get(kind, 0)

    @property
    def world_switches(self) -> int:
        """Total privilege-boundary crossings in the region.

        A *world switch* in the paper's terminology is any ring crossing,
        host/guest mode switch, or address-space switch: syscall traps and
        returns, VM exits and entries, VMFUNC EPT switches, world calls,
        interrupt deliveries and context switches
        (:data:`WORLD_SWITCH_KINDS`).
        """
        return sum(self.events.get(k, 0) for k in WORLD_SWITCH_KINDS)


class PerfCounters:
    """Mutable instruction/cycle/event accumulators for one CPU.

    When an observatory is installed (:mod:`repro.observatory`), each
    counter carries a next-window threshold: crossing it at a charge
    routes one sampling boundary to the observatory.  Dormant cost is
    one class-attribute load and one integer compare per charge — the
    class-level ``_obs_next`` sentinel can never be crossed.
    """

    #: No observatory: threshold the cycle accumulator can never reach.
    _obs = None
    _obs_next = _observatory._OBS_DISABLED

    def __init__(self) -> None:
        self.instructions = 0
        self.cycles = 0
        self.events: Counter = Counter()
        observe.emit("hw", "perf_counters", ref=self)

    def charge(self, kind: str, cost: Cost) -> None:
        """Record one event of ``kind`` costing ``cost``."""
        self.instructions += cost.instructions
        self.cycles += cost.cycles
        self.events[kind] += 1
        if self.cycles >= self._obs_next:
            _observatory._boundary(self)

    def charge_batch(self, cost: Cost, events: Mapping[str, int]) -> None:
        """Apply a pre-summed cost plus its per-event counts in one call.

        The untraced Figure-4 round trip charges each of its halves this
        way: one aggregate ``cost`` with exact ``events`` counts, so the
        counters end up bit-identical to charging each primitive
        individually.
        """
        self.instructions += cost.instructions
        self.cycles += cost.cycles
        counters = self.events
        for kind, count in events.items():
            counters[kind] += count
        if self.cycles >= self._obs_next:
            _observatory._boundary(self)

    def snapshot(self) -> PerfSnapshot:
        """Copy the current counter values."""
        return PerfSnapshot(
            instructions=self.instructions,
            cycles=self.cycles,
            events=dict(self.events),
        )

    def reset(self) -> None:
        """Zero every counter (used between benchmark iterations)."""
        observers = observe.observers
        if observers is not None:
            # An observatory closes out the un-sampled tail before the
            # cycle domain restarts at zero, and re-anchors.
            observe.publish(observers,
                            observe.Event("hw", "perf_reset", ref=self))
        elif self._obs is not None:
            self._obs = None
            self._obs_next = _observatory._OBS_DISABLED
        self.instructions = 0
        self.cycles = 0
        self.events.clear()
