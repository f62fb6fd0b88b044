"""The fault engine: deterministic, budgeted firing of planned faults.

The engine is installed as a module global (see :mod:`repro.faults`)
and datapath code calls :meth:`FaultEngine.fire` at named hookpoints.
Firing is a pure function of (plans, operation index, hookpoint
context): no clocks, no ambient RNG, so two runs with the same plans
replay the same faults at the same instructions regardless of worker
count.

The campaign runner brackets each replayed operation with
``begin_operation(i)`` / ``end_operation()``.  Outside an operation the
engine is inert (``op_index == -1``), which lets harness warm-up code
run under an installed engine without tripping plans scheduled for
op 0.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import observe

from .plan import FaultPlan
from .sites import SITES, FaultSite


class FaultEngine:
    """Evaluates :class:`FaultPlan` objects at datapath hookpoints."""

    def __init__(self, plans) -> None:
        self.plans: Tuple[FaultPlan, ...] = tuple(plans)
        for plan in self.plans:
            if plan.site not in SITES:
                raise ValueError(f"unknown fault site: {plan.site!r}")
        #: Total fires per site across the whole run.
        self.fired: Counter = Counter()
        #: Sites fired during the current operation (at most once each:
        #: a recovery retry re-visits the hookpoint and must not be
        #: re-faulted, or no bounded-retry policy could ever converge).
        self.fired_this_op: List[str] = []
        self.op_index: int = -1
        self._undo: List[Callable[[], None]] = []

    # -- operation bracketing ---------------------------------------------

    def begin_operation(self, index: int) -> None:
        self.op_index = index
        self.fired_this_op = []
        self._undo = []

    def end_operation(self) -> None:
        """Run registered undo closures (newest first) and go inert."""
        while self._undo:
            self._undo.pop()()
        self.fired_this_op = []
        self.op_index = -1

    def add_undo(self, fn: Callable[[], None]) -> None:
        self._undo.append(fn)

    # -- firing ------------------------------------------------------------

    def fire(self, hookpoint: str, **ctx: Any) -> Optional[Any]:
        """Evaluate every plan bound to ``hookpoint``.

        Returns the last non-None value produced by a site action (used
        by value-substituting sites such as the forged-WID presenter);
        raising actions simply propagate.
        """
        if self.op_index < 0:
            return None
        result: Optional[Any] = None
        for plan in self.plans:
            site = SITES[plan.site]
            if site.hookpoint != hookpoint:
                continue
            if site.match is not None and not site.match(ctx):
                continue
            if plan.site in self.fired_this_op:
                continue
            if self.fired[plan.site] >= plan.budget:
                continue
            if self.op_index not in plan.schedule:
                continue
            if plan.trigger is not None and not plan.trigger(ctx):
                continue
            self.fired[plan.site] += 1
            self.fired_this_op.append(plan.site)
            # Audit logs this as a correlation marker only — detectors
            # ignore fam "fault" records (see repro.audit.detectors).
            observe.emit("fault", "fault_injected", site=plan.site)
            value = site.action(self, ctx)
            if value is not None:
                result = value
        return result

    # -- introspection -----------------------------------------------------

    def site_for(self, name: str) -> FaultSite:
        return SITES[name]

    def fired_counts(self) -> Dict[str, int]:
        return dict(sorted(self.fired.items()))
