"""The rejected design alternatives of Section 3.3, made measurable.

The paper argues for a non-disruptive synchronous call and against two
alternatives; this module implements cost-faithful models of both so
the trade-off is quantifiable (``benchmarks/bench_design_choices.py``):

* :class:`AsyncMessageCall` — "asynchronous call through message
  passing": the caller enqueues a request for a callee running on
  another core and waits for the reply.  Latency includes the callee's
  *scheduling delay* (it "must wait until it is scheduled to run"),
  which grows with how busy the callee core is, plus the cache-transfer
  cost of moving the working set between cores.
* :class:`IPIBoundCall` — "synchronous calls through IPI": the caller
  first performs a privileged operation binding the callee to a target
  core (a hypercall — "requires ring crossing itself"), then an
  inter-processor interrupt transfers control.

Both are compared against the paper's choice, the in-place synchronous
``world_call``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.hw.costs import Cost
from repro.hw.cpu import CPU, Mode

#: Delivering an IPI: APIC write + remote vectoring.
IPI_COST = Cost(60, 1800)

#: Cross-core cache-line transfer of a call's working set (request,
#: stack, data lines) — why cross-core calls are "not cache-friendly".
CROSS_CORE_CACHE_COST = Cost(0, 4200)

#: Scheduling quantum on the callee's core: expected wait until the
#: polling callee thread runs, per competing runnable thread.
CALLEE_SCHED_QUANTUM = Cost(0, 24_000)


@dataclass
class AltCallResult:
    """Result + accounting for one alternative-mechanism call."""

    value: Any
    cycles: int


class AsyncMessageCall:
    """Message-passing call to a service thread on another core.

    ``callee_load`` = competing runnable threads on the callee's core
    (0 means the service thread is already spinning on the queue).
    """

    def __init__(self, machine, handler: Callable[[Any], Any], *,
                 callee_load: int = 0) -> None:
        self.machine = machine
        self.handler = handler
        self.callee_load = callee_load
        self.calls = 0

    def call(self, cpu: CPU, payload: Any) -> Any:
        """One enqueue -> (callee schedules, serves) -> reply wait."""
        before = cpu.perf.cycles
        cm = self.machine.cost_model
        # Enqueue + signal (shared-memory queue write + flag).
        cpu.perf.charge("msg_enqueue", cm.copy(64) + Cost(20, 120))
        # The callee core must schedule the service thread.
        if self.callee_load:
            cpu.perf.charge("callee_sched_wait",
                            CALLEE_SCHED_QUANTUM.scaled(self.callee_load))
        cpu.perf.charge("cross_core_cache", CROSS_CORE_CACHE_COST)
        value = self.handler(payload)
        # Reply message + caller wakeup.
        cpu.perf.charge("msg_reply", cm.copy(64) + Cost(20, 120))
        cpu.perf.charge("cross_core_cache", CROSS_CORE_CACHE_COST)
        self.calls += 1
        return AltCallResult(value, cpu.perf.cycles - before)


class IPIBoundCall:
    """Synchronous cross-core call via binding + IPI.

    Every call pays a privileged scheduler-binding operation first
    (hypercall round trip when issued from a guest), then the IPI pair.
    """

    def __init__(self, machine, handler: Callable[[Any], Any]) -> None:
        self.machine = machine
        self.handler = handler
        self.calls = 0

    def call(self, cpu: CPU, payload: Any) -> Any:
        before = cpu.perf.cycles
        cm = self.machine.cost_model
        # Bind the callee to the target core: privileged operation.
        if cpu.mode is Mode.NON_ROOT:
            cpu.vmexit("vmcall", "bind callee core")
            cpu.charge("vmexit_handle")
            cpu.charge("hypercall_dispatch")
            assert cpu.current_vmcs is not None
            cpu.vmentry(cpu.current_vmcs, "resume")
        else:
            cpu.charge("hypercall_dispatch")
        # IPI there, remote vectoring, IPI back.
        cpu.perf.charge("ipi", IPI_COST)
        cpu.perf.charge("irq_deliver", cm.irq_vector)
        value = self.handler(payload)
        cpu.perf.charge("ipi", IPI_COST)
        self.calls += 1
        return AltCallResult(value, cpu.perf.cycles - before)

