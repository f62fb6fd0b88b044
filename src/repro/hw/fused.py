"""Fused cost charging: pre-summed charge sequences for fixed call shapes.

Every boundary crossing the simulator models is charged step by step —
a world call is ``world_save_state`` + ``world_param_setup`` +
``world_call_hw`` + ..., a redirected syscall is ``user_wrapper`` +
``syscall_trap`` + ``syscall_dispatch`` + ``sysret``, and so on.  The
steps of one shape never vary, so the fast path pre-computes each
shape's total :class:`~repro.hw.costs.Cost` and per-event counts once
per cost model and applies them with a single
:meth:`~repro.hw.perf.PerfCounters.charge_batch` call.

The counters produced are bit-identical to the step-by-step path: the
event counts are preserved exactly, so ``PerfDelta.world_switches``
(which classifies events with :data:`~repro.hw.perf.WORLD_SWITCH_KINDS`
— reused here so the two layers cannot drift) and the determinism tests
see the same numbers.

Shapes are built with :func:`fuse`, which memoizes on the (hashable,
frozen) cost model and the kind sequence; variable-size parts (channel
and buffer copies) are added per call via ``Cost.__add__`` on top of
the fixed record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

from repro import observe
from repro.hw.costs import Cost, CostModel
from repro.hw.perf import WORLD_SWITCH_KINDS

#: A charge-sequence spec entry: an event kind, or ``(kind, count)``.
KindSpec = Union[str, Tuple[str, int]]


@dataclass(frozen=True)
class FusedCharge:
    """One pre-summed charge sequence.

    ``events`` maps event kind -> occurrence count, ``cost`` is the sum
    of the per-primitive costs, and ``world_switches`` counts how many
    of the fused events are world switches per
    :data:`~repro.hw.perf.WORLD_SWITCH_KINDS`.
    """

    events: Dict[str, int]
    cost: Cost
    world_switches: int

    def apply(self, perf, extra: Cost = None) -> None:
        """Charge this sequence (plus an optional variable-size part
        under the same event counts) onto ``perf`` in one call."""
        cost = self.cost if extra is None else self.cost + extra
        perf.charge_batch(cost, self.events)
        observers = observe.observers
        if observers is not None:
            observe.publish(observers, observe.Event("hw", "fused", ref=self))


def _model_cache(model: CostModel) -> Dict[Tuple[KindSpec, ...],
                                           FusedCharge]:
    """Per-instance record cache, attached lazily to the (frozen) cost
    model.  Keyed by identity rather than an ``lru_cache`` on the model
    itself: hashing a CostModel walks all of its Cost fields, which on
    the hot path costs more than the charging it amortizes."""
    cache = getattr(model, "_fused_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(model, "_fused_cache", cache)
    return cache


def fuse(model: CostModel, kinds: Tuple[KindSpec, ...]) -> FusedCharge:
    """Build (and memoize) the fused record for a charge sequence.

    ``kinds`` entries are cost-model field names, optionally paired with
    a repeat count: ``fuse(model, ("syscall_trap", ("int_toggle", 2)))``.
    """
    cache = _model_cache(model)
    cached = cache.get(kinds)
    if cached is not None:
        return cached
    events: Dict[str, int] = {}
    instructions = 0
    cycles = 0
    for spec in kinds:
        kind, count = spec if isinstance(spec, tuple) else (spec, 1)
        unit: Cost = getattr(model, kind)
        events[kind] = events.get(kind, 0) + count
        instructions += unit.instructions * count
        cycles += unit.cycles * count
    switches = sum(count for kind, count in events.items()
                   if kind in WORLD_SWITCH_KINDS)
    record = FusedCharge(events=events, cost=Cost(instructions, cycles),
                         world_switches=switches)
    cache[kinds] = record
    return record


# ---------------------------------------------------------------------------
# The named call shapes of the paper's transition paths.
# ---------------------------------------------------------------------------

def syscall_entry(model: CostModel) -> FusedCharge:
    """User -> kernel half of a native syscall: libc wrapper, SYSCALL
    trap, dispatcher.  (The SYSRET half stays separate: handler bodies
    observe the cycle counter mid-syscall, so charging order at the
    dispatch boundary must be preserved.)"""
    return fuse(model, ("user_wrapper", "syscall_trap", "syscall_dispatch"))


def world_call_caller_entry(model: CostModel) -> FusedCharge:
    """Caller-side fixed work before issuing ``world_call``: state save
    onto the world stack plus parameter setup."""
    return fuse(model, ("world_save_state", "world_param_setup"))


def world_call_callee_entry(model: CostModel, *,
                            sched_reload: Cost) -> FusedCharge:
    """Callee-side fixed work on an authorized world call: the Section
    5.3 scheduler state reload plus the software WID authorization."""
    cache = _model_cache(model)
    key = ("callee_entry", sched_reload)
    cached = cache.get(key)
    if cached is not None:
        return cached
    record = fuse(model, ("world_authorize",))
    built = FusedCharge(
        events={"sched_reload": 1, **record.events},
        cost=sched_reload + record.cost,
        world_switches=record.world_switches)
    cache[key] = built
    return built


def vmexit_roundtrip(model: CostModel) -> FusedCharge:
    """One hypervisor bounce: VM exit + KVM handling + VM entry."""
    return fuse(model, ("vmexit", "vmexit_handle", "vmentry"))


def crossvm_enter(model: CostModel, *, install_idt: bool) -> FusedCharge:
    """Steps 2-3 of the Figure-4 cross-VM call, minus the variable-size
    copies: helper CR3 load, cli, transition-IDT install, the VMFUNC EPT
    switch, and the callee-side sti."""
    kinds: Tuple[KindSpec, ...] = (
        "cr3_write", ("int_toggle", 2), "vmfunc_ept_switch")
    if install_idt:
        kinds += ("idt_switch",)
    return fuse(model, kinds)


def crossvm_return(model: CostModel, *, restore_idt: bool) -> FusedCharge:
    """Steps 5-6 of the Figure-4 cross-VM call, minus the variable-size
    copies: cli, the VMFUNC EPT switch back, IDT restore, sti, and the
    original CR3 load."""
    kinds: Tuple[KindSpec, ...] = (
        ("int_toggle", 2), "vmfunc_ept_switch", "cr3_write")
    if restore_idt:
        kinds += ("idt_switch",)
    return fuse(model, kinds)
