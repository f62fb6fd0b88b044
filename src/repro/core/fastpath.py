"""The simulator's fast-path switch.

The fast-path engine (PR 1) collapses the simulator's own hot loops the
same way CrossOver collapses world switches: repeated work is done once
and cached.  Three layers hang off this switch:

* the **marshaling cache** in :mod:`repro.core.convention` (memoized
  wire encodings / decodings);
* **fused cost charging** (:mod:`repro.hw.fused`): the fixed charge
  sequence of a call shape is applied as one
  :meth:`~repro.hw.perf.PerfCounters.charge_batch` instead of N
  individual charges;
* label-free transitions: when a CPU's transition trace is disabled the
  CPU skips building human-readable world labels entirely.

The hard invariant: **simulated results are bit-identical** with the
fast path on or off — same instructions, same cycles, same per-event
counts.  ``tests/analysis/test_fastpath_equivalence.py`` is the golden
test enforcing this; any fast-path change must keep it green.

The switch is process-global (the hot loops cannot afford per-call
indirection) and is the simulator's only execution-tier switch: on is
the fused tier every workload runs, off is the step-by-step oracle the
golden tests compare against.  It defaults to on and can be forced off
with the ``REPRO_FASTPATH=0`` environment variable or :func:`disable`.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

_enabled = os.environ.get("REPRO_FASTPATH", "1") not in ("0", "false", "off")


def enabled() -> bool:
    """Whether the fast-path engine is active."""
    return _enabled


def enable() -> None:
    """Turn the fast-path engine on."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn the fast-path engine off (every hot loop takes the original
    step-by-step path; used as the reference side of the golden
    equivalence test)."""
    global _enabled
    _enabled = False


@contextlib.contextmanager
def scoped(on: bool) -> Iterator[None]:
    """Temporarily force the fast path on or off::

        with fastpath.scoped(False):
            slow = run_table4()
    """
    global _enabled
    previous = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = previous
