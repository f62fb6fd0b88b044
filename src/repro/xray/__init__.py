"""``repro.xray``: request-scoped tracing and tail attribution.

The observatory (PR8) says *when* a tail crossed a threshold; the
fleet campaign (PR9) says *how bad* it is.  X-ray says **why**: every
traced request carries a segment vector on the modeled-cycle clock
(queue wait, hypervisor-serialization wait, WT refill, worker wakeup,
marshal, transition core, handler body, return path) whose entries sum
*exactly* to its end-to-end latency, and the explainer aggregates
those into a critical-path table (self vs contention time,
per tenant / mechanism / stage), a noisy-neighbor report, and
histogram exemplars linking the p99 bucket to a concrete replayable
trace id.

Two entry points:

* the **fleet path** — :class:`~repro.xray.trace.XrayRecorder` passed
  into :class:`~repro.fleet.scheduler.FleetScheduler`; the
  ``crossover xray`` campaign (:mod:`repro.xray.campaign`, run by
  :mod:`repro.campaign`) sweeps it into a
  schema-validated ``crossover-xray/v1`` artifact;
* the **single-machine path** — the process-global
  :class:`XraySession` below, one subscriber on the observer bus
  (:mod:`repro.observe`): it mints a deterministic trace id per
  completed world call and publishes sampled ids, which telemetry
  attaches as the ``world_call.cycles`` histogram exemplar.

Sampling everywhere is a seeded hash of the trace id (never ``random``
or wall-clock), so artifacts are byte-identical at 1/2/4 pool workers
and 1/2/4 scheduler lanes.
"""

from __future__ import annotations

from typing import ContextManager, Dict, Optional, Tuple

from repro import observe
from repro.xray.trace import (
    CONTENTION,
    DEFAULT_KEEP,
    DEFAULT_SAMPLE_EVERY,
    SEGMENTS,
    TraceState,
    XrayRecorder,
    check_traces,
    dominant_segment,
    is_sampled,
    trace_id,
)

__all__ = [
    "SEGMENTS", "CONTENTION", "DEFAULT_SAMPLE_EVERY", "DEFAULT_KEEP",
    "TraceState", "XrayRecorder", "XraySession", "check_traces",
    "dominant_segment", "is_sampled", "trace_id",
    "current", "enabled", "install", "uninstall", "scoped",
]


class XraySession:
    """Single-machine trace-id minting for the world-call hot path.

    Each ``(caller wid, callee wid)`` edge gets its own sequence, so
    the id ``wc:<caller>-><callee>#<n>`` is stable across runs of the
    same deterministic workload.  ``call_exemplar`` returns the id for
    sampled calls and None otherwise — the runtime threads it straight
    into ``world_call.cycles``'s exemplar slot.
    """

    __slots__ = ("seed", "sample_every", "issued", "sampled", "_seqs")

    def __init__(self, seed: int = 0,
                 sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.seed = seed
        self.sample_every = sample_every
        self.issued = 0
        self.sampled = 0
        self._seqs: Dict[Tuple[int, int], int] = {}

    def call_exemplar(self, caller: int, callee: int) -> Optional[str]:
        """Mint the next trace id on this edge; return it when the
        seeded hash samples it, else None."""
        edge = (caller, callee)
        seq = self._seqs.get(edge, 0)
        self._seqs[edge] = seq + 1
        self.issued += 1
        tid = f"wc:{caller}->{callee}#{seq}"
        if not is_sampled(self.seed, tid, self.sample_every):
            return None
        self.sampled += 1
        return tid

    def stats(self) -> Dict[str, int]:
        return {"issued": self.issued, "sampled": self.sampled}

    def on_event(self, event) -> None:
        """One :class:`~repro.observe.Event` from a datapath seam."""
        handler = self._HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    def _call_end(self, event) -> None:
        """A world call completed: publish its trace id when sampled
        (ahead of telemetry, see :data:`repro.observe.ORDER`)."""
        if event.detail != "ok":
            return
        tid = self.call_exemplar(event.caller_wid, event.callee_wid)
        if tid is not None:
            observe.emit("xray", "exemplar", caller_wid=event.caller_wid,
                         callee_wid=event.callee_wid, detail=tid)

    _HANDLERS = {"call_end": _call_end}


# ---------------------------------------------------------------------------
# the process-global switch (one slot on the observer bus)
# ---------------------------------------------------------------------------

def current() -> Optional[XraySession]:
    """The installed session, or None."""
    return observe.current("xray")


def enabled() -> bool:
    """Whether an xray session is installed."""
    return observe.current("xray") is not None


def install(session: Optional[XraySession] = None) -> XraySession:
    """Install ``session`` (or a fresh one) process-wide."""
    return observe.install(
        "xray", session if session is not None else XraySession())


def uninstall() -> Optional[XraySession]:
    """Remove and return the installed session."""
    return observe.uninstall("xray")


def scoped(session: Optional[XraySession] = None, *,
           seed: int = 0,
           sample_every: int = DEFAULT_SAMPLE_EVERY
           ) -> ContextManager[XraySession]:
    """Install a session for a ``with`` block, restoring whatever was
    installed before."""
    if session is None:
        session = XraySession(seed, sample_every)
    return observe.scoped("xray", session)
