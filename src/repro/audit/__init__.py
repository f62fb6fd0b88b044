"""repro.audit — flight recorder + hash-chained world-call audit log.

The subsystem has five pieces:

* :mod:`repro.audit.recorder` — :class:`FlightRecorder`: the bounded,
  hash-chained log; one structured record per world transition and per
  authorization decision, appended at hookpoints threaded through the
  same seams telemetry uses.
* :mod:`repro.audit.chain` — chain construction and offline
  verification (:func:`verify_chain` / :func:`require_chain`).
* :mod:`repro.audit.graph` — causal reconstruction: the flat log
  becomes a who-called-whom forest with per-edge modeled-cost rollups,
  and its Figure-2 crossing replay crosschecks the span tracer.
* :mod:`repro.audit.detectors` — pluggable anomaly detectors
  (:data:`DETECTORS`): forged WID, denial bursts, injection storms,
  crossing-pattern drift, chain breaks.
* :mod:`repro.audit.workload` — the ``crossover audit`` campaign
  (record, then ``--check`` offline) and the deterministic
  ``crossover-audit/v1`` artifact.

The recorder is one subscriber on the observer bus
(:mod:`repro.observe`), *zero cost when disabled*: every datapath seam
guards with the bus's one attribute read and ``None`` test.
"""

from __future__ import annotations

from typing import ContextManager, Optional

from repro import observe

from .chain import require_chain, verify_chain
from .detectors import DETECTORS, run_detectors
from .recorder import FlightRecorder, RECORD_FIELDS

__all__ = [
    "DETECTORS",
    "FlightRecorder",
    "RECORD_FIELDS",
    "current",
    "enabled",
    "install",
    "require_chain",
    "run_detectors",
    "scoped",
    "uninstall",
    "verify_chain",
]


def install(recorder: FlightRecorder) -> FlightRecorder:
    """Install ``recorder`` as the process-wide flight recorder."""
    return observe.install("audit", recorder)


def uninstall() -> None:
    observe.uninstall("audit")


def enabled() -> bool:
    return observe.current("audit") is not None


def current() -> Optional[FlightRecorder]:
    return observe.current("audit")


def scoped(recorder: FlightRecorder) -> ContextManager[FlightRecorder]:
    """Install ``recorder`` for the duration of a with-block (nest-safe)."""
    return observe.scoped("audit", recorder)
