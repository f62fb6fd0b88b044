"""repro.faults — deterministic fault injection over the world-call datapath.

The subsystem has four pieces:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: which site, at which
  operation indexes (seeded schedule), how many times (budget).
* :mod:`repro.faults.sites` — the named injection-site catalog spanning
  the ``hw``, ``hypervisor``, and ``core`` layers.
* :mod:`repro.faults.engine` — :class:`FaultEngine`, evaluated at
  hookpoints threaded through the datapath.
* :mod:`repro.faults.campaign` — the campaign runner that replays case
  study operations under each plan and classifies the outcomes
  (``denied-cleanly`` / ``recovered`` / ``degraded-to-legacy`` /
  ``invariant-violation``); ``crossover faults`` runs it
  (:mod:`repro.campaign`).

Injection changes behaviour, so unlike the observers on
:mod:`repro.observe` it keeps its own module-global switch, *zero cost
when disabled*: hot datapath code guards every
hookpoint with ``if _faults._engine is not None`` and the default is
``None``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .engine import FaultEngine
from .plan import FaultPlan, seeded_plan, seeded_schedule
from .sites import SITES, SITE_NAMES, FaultSite

__all__ = [
    "FaultEngine",
    "FaultPlan",
    "FaultSite",
    "SITES",
    "SITE_NAMES",
    "current",
    "enabled",
    "install",
    "scoped",
    "seeded_plan",
    "seeded_schedule",
    "uninstall",
]

#: The installed engine; ``None`` means injection is off everywhere.
_engine: Optional[FaultEngine] = None


def install(engine: FaultEngine) -> FaultEngine:
    """Install ``engine`` as the process-wide fault engine."""
    global _engine
    _engine = engine
    return engine


def uninstall() -> None:
    global _engine
    _engine = None


def enabled() -> bool:
    return _engine is not None


def current() -> Optional[FaultEngine]:
    return _engine


@contextmanager
def scoped(engine: FaultEngine) -> Iterator[FaultEngine]:
    """Install ``engine`` for the duration of a with-block (nest-safe)."""
    global _engine
    previous = _engine
    _engine = engine
    try:
        yield engine
    finally:
        _engine = previous
