"""The flight recorder: bounded, hash-chained world-call audit log.

One :class:`FlightRecorder` is installed on the observer bus (see
:mod:`repro.audit` and :mod:`repro.observe`); every bus record whose
kind the recorder logs becomes one structured record with a fixed
field set (the bus record's fields plus ``seq``, ``epoch`` and
``hash``):

``seq``         recorder-local sequence number (0-based, contiguous)
``fam``         record family: ``trace`` (transition-trace events),
                ``hw`` (hardware world_call / EPTP switch), ``hv``
                (hypervisor: WTC service, revalidate, hypercall, virq),
                ``core`` (call bracketing, authorization decisions,
                recoveries, marshal repair), ``sys`` (case-study
                redirect bracketing), ``fault`` (injected-fault
                markers; anomaly detectors deliberately ignore these)
``kind``        event taxonomy key within the family
``frm`` / ``to``  world/VM labels where the event crosses a boundary
``caller_wid`` / ``callee_wid``  the WIDs involved (None when n/a);
                for ``world_call`` records these are the
                hardware-authenticated values
``mode``        ``"H"`` (VMX root / host) or ``"G"`` (guest) after the
                event, when the hook knows it
``ring``        CPL after the event, when the hook knows it
``epoch``       EPTP/PTP mapping epoch, *relative to the recorder's
                installation* so logs are byte-identical regardless of
                how many simulations ran earlier in the process
``decision``    ``"allow"`` / ``"deny"`` on authorization and
                hypercall records
``site``        fault-site name on ``fault`` records
``detail``      free-form annotation
``cycles``      modeled cycle counter (absolute for bracketing
                records, per-event charge for trace records)
``hash``        chain link — see :mod:`repro.audit.chain`

Cost: the append path hashes straight from the event's fields through
the chain's one canonical encoder (:func:`repro.audit.chain.encode`)
and retains each record as a tuple in :data:`RECORD_FIELDS` order.
Dicts are built only on export: :attr:`FlightRecorder.records` and
:meth:`FlightRecorder.to_log` return fresh ones on every call, so
tampering with an exported log never touches the recorder's own.

Determinism: records contain only modeled state (no wall-clock, no
RNG, no PIDs), so the same workload produces a byte-identical log at
any worker count.  Boundedness: past ``capacity`` records the oldest
are dropped ring-style; the drop count and the first retained ``seq``
are declared in the exported log, and the retained window remains
verifiable link by link.

Zero cost when disabled: nothing here runs unless a recorder is
installed; seams guard with the bus's one attribute read + None test.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import observe
from repro.audit import chain as _chain

#: Fixed record field order (documentation + schema + tests).
RECORD_FIELDS = _chain.RECORD_FIELDS


class FlightRecorder:
    """Append-only hash-chained audit log retaining the newest
    ``capacity`` records."""

    def __init__(self, label: str = "audit", capacity: int = 65536) -> None:
        self.label = label
        self.capacity = capacity
        #: Retained records as tuples in :data:`RECORD_FIELDS` order;
        #: the deque drops the oldest past ``capacity``.
        self._records: Deque[Tuple[Any, ...]] = deque(maxlen=capacity)
        self._seq = 0
        #: Records whose decision was ``"deny"`` — the online anomaly
        #: signal the observatory samples (full detectors stay offline).
        self.denials = 0
        self._prev_hash = _chain.GENESIS
        # Imported here, not at module top: repro.audit must stay a
        # leaf package so hot datapath modules (hw.cpu, hw.trace,
        # core.call) can import it without cycles.
        from repro.hw import mem
        self._mem = mem
        self._epoch_base = mem.mapping_epoch()

    # ------------------------------------------------------------------
    # the observer seam and the append path
    # ------------------------------------------------------------------

    def on_event(self, event) -> None:
        """One :class:`~repro.observe.Event` from a datapath seam."""
        handler = self._HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    def _transition(self, event) -> None:
        """One transition-trace event, logged under its crossing kind."""
        self._append(event, event.ref.kind)

    def _append(self, event, kind: Optional[str] = None) -> None:
        body = (self._seq, event.fam, kind or event.kind, event.frm,
                event.to, event.caller_wid, event.callee_wid, event.mode,
                event.ring, self._mem.mapping_epoch() - self._epoch_base,
                event.decision, event.site, event.detail, event.cycles)
        self._prev_hash = _chain.link_body(self._prev_hash, body)
        self._seq += 1
        self._records.append(body + (self._prev_hash,))
        if event.decision == "deny":
            self.denials += 1
            # The online anomaly signal: the observatory pins it to the
            # window it happened in.
            observe.emit("audit", "anomaly",
                         site=f"{event.fam}.{body[2]}",
                         detail=event.detail or event.frm)

    #: Every kind the log records.  ``fault_injected`` is a marker for
    #: offline correlation only; detectors must not read it (a
    #: production fault leaves no such courtesy marker).  For
    #: ``hw``/``world_call`` records the WIDs are the
    #: hardware-authenticated ones — the unforgeable half of the paper's
    #: security argument — while ``core``/``authorization`` records the
    #: WID the callee was *presented* (which a compromised software
    #: layer may have forged; detectors compare the two).
    _HANDLERS = dict.fromkeys(
        ("world_call", "ept_switch",
         "wtc_service", "revalidate", "hypercall", "virq_inject",
         "virq_deliver",
         "call_begin", "call_end", "authorization", "crossvm_begin",
         "crossvm_end", "recovery", "marshal_repair",
         "redirect_begin", "redirect_end", "fault_injected"), _append)
    _HANDLERS["transition"] = _transition

    def stats(self) -> Dict[str, int]:
        """Monotonic counters for the observatory's windowed sampling."""
        return {"records": self._seq, "dropped": self._dropped(),
                "denials": self.denials}

    def _dropped(self) -> int:
        return self._seq - len(self._records)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The retained records, oldest first, as fresh dicts: mutating
        them leaves the recorder's log intact."""
        return [dict(zip(RECORD_FIELDS, record)) for record in self._records]

    def to_log(self) -> Dict[str, Any]:
        """The exportable, verifiable log (plain data, json-ready; the
        records are fresh dicts, as :attr:`records` returns)."""
        return {
            "label": self.label,
            "algo": _chain.ALGORITHM,
            "genesis": _chain.GENESIS,
            "first_seq": self._records[0][0] if self._records else 0,
            "dropped": self._dropped(),
            "final_hash": self._prev_hash,
            "records": self.records,
        }
