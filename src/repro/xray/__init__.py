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

X-ray runs on the fleet path only: an
:class:`~repro.xray.trace.XrayRecorder` passed into
:class:`~repro.fleet.scheduler.FleetScheduler` annotates each request,
:func:`~repro.xray.trace.check_traces` verifies the conservation law,
:mod:`repro.xray.explain` renders the tail tables and
:mod:`repro.xray.export` the Perfetto trace.  Every ``crossover fleet``
cell (:mod:`repro.fleet.campaign`) carries a recorder, so the
``crossover-fleet/v2`` artifact holds the traces and their
explanation.  It is not an observer-bus subscriber.

Sampling is a seeded hash of the trace id (never ``random`` or
wall-clock), so artifacts are byte-identical at 1/2/4 pool workers and
1/2/4 scheduler lanes.
"""

from __future__ import annotations

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
    "TraceState", "XrayRecorder", "check_traces",
    "dominant_segment", "is_sampled", "trace_id",
]
