"""repro.switchless — switchless worker-context calls with adaptive
per-site mechanism selection.

The subsystem has four pieces:

* :mod:`repro.switchless.engine` — :class:`SwitchlessEngine`: the
  deterministic worker scheduler over shared-memory request rings (the
  ring layer itself lives in ``hypervisor/shared_memory.py``; the
  primitive costs in ``hw/costs.py``).
* :mod:`repro.switchless.policy` — :class:`AdaptivePolicy`: flips hot
  (site, caller, callee) tuples between ``world_call`` and
  ``switchless`` from per-window call rate and ring occupancy.
* :mod:`repro.switchless.campaign` — the seeded three-way evaluation
  campaign (baseline / world_call / switchless) behind
  ``crossover switchless`` (:mod:`repro.campaign`).
* the **dispatch seam** in ``core/call.py`` / ``core/crossvm.py`` —
  every call site accepts ``mechanism="baseline" | "world_call" |
  "switchless"``, and with no explicit choice the installed engine's
  :meth:`SwitchlessEngine.select` decides.

The engine is configless: ``SwitchlessEngine(force=..., workers=...)``
is its whole surface, and every other knob is a module constant.

Like telemetry, faults and audit, the engine is a
module-global switch that is *zero cost when disabled*: dispatch seams
guard with ``if _switchless._engine is not None`` and the default is
``None``.  Every cell installs its engine through one slot,
``with scoped(engine):``, where ``scoped(None)`` runs the block with no
engine at all.  An adaptive engine whose policy has not flipped a site
watches every dispatch but never diverts one and never charges a cycle,
so until the first flip all counters stay bit-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .engine import STAT_FIELDS, SwitchlessEngine, SwitchlessStats
from .policy import AdaptivePolicy, SiteState

__all__ = [
    "AdaptivePolicy",
    "STAT_FIELDS",
    "SiteState",
    "SwitchlessEngine",
    "SwitchlessStats",
    "current",
    "enabled",
    "install",
    "scoped",
    "uninstall",
]

#: The installed engine; ``None`` means switchless is off everywhere.
_engine: Optional[SwitchlessEngine] = None


def install(engine: SwitchlessEngine) -> SwitchlessEngine:
    """Install ``engine`` process-wide."""
    global _engine
    _engine = engine
    return _engine


def uninstall() -> None:
    global _engine
    _engine = None


def enabled() -> bool:
    return _engine is not None


def current() -> Optional[SwitchlessEngine]:
    return _engine


@contextmanager
def scoped(engine: Optional[SwitchlessEngine]
           ) -> Iterator[Optional[SwitchlessEngine]]:
    """Install ``engine`` (``None``: no engine) for the duration of a
    with-block, restoring the previous one on exit (nest-safe)."""
    global _engine
    previous = _engine
    _engine = engine
    try:
        yield engine
    finally:
        _engine = previous
