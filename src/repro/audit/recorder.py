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

Cost: the append path hands the event's eleven static fields and the
three counters to the chain's one canonical encoder
(:func:`repro.audit.chain.link_static`), which fills the site's cached
byte template and hashes it.  The recorder formats no bytes itself, and
it retains each record as ``(static, epoch, cycles, hash)``: ``static``
is the encoder's cached tuple, shared by every record of that site,
``epoch`` is one int per mapping epoch, and ``seq`` follows from the
record's position in the ring.  Dicts are built only on export:
:attr:`FlightRecorder.records` and :meth:`FlightRecorder.to_log` return
fresh ones in :data:`RECORD_FIELDS` order on every call, so tampering
with an exported log never touches the recorder's own.  Digests stay
hex strings: the export needs one per record anyway, so a raw 32-byte
digest would only add a second object beside it.

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
        #: Retained records, oldest first, as ``(static, epoch, cycles,
        #: hash)``: ``static`` is the chain's shared tuple of the
        #: record's :data:`~repro.audit.chain.STATIC_FIELDS` values, and
        #: ``seq`` is implied by the position.  The deque drops the
        #: oldest past ``capacity``.
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
        self._epoch_base = self._raw_epoch = mem.mapping_epoch()
        #: The epoch relative to installation: one int for all the
        #: records of one mapping epoch.
        self._epoch = 0

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
        raw = self._mem.mapping_epoch()
        if raw != self._raw_epoch:
            self._raw_epoch = raw
            self._epoch = raw - self._epoch_base
        static, self._prev_hash = _chain.link_static(
            self._prev_hash,
            (event.fam, kind or event.kind, event.frm, event.to,
             event.caller_wid, event.callee_wid, event.mode, event.ring,
             event.decision, event.site, event.detail),
            self._seq, self._epoch, event.cycles)
        self._seq += 1
        self._records.append((static, self._epoch, event.cycles,
                              self._prev_hash))
        if event.decision == "deny":
            self.denials += 1
            # The online anomaly signal: the observatory pins it to the
            # window it happened in.
            observe.emit("audit", "anomaly",
                         site=f"{event.fam}.{static[1]}",
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
        return [dict(zip(RECORD_FIELDS, (seq, *static[:8], epoch,
                                         *static[8:], cycles, digest)))
                for seq, (static, epoch, cycles, digest)
                in enumerate(self._records, self._seq - len(self._records))]

    def to_log(self) -> Dict[str, Any]:
        """The exportable, verifiable log (plain data, json-ready; the
        records are fresh dicts, as :attr:`records` returns)."""
        return {
            "label": self.label,
            "algo": _chain.ALGORITHM,
            "genesis": _chain.GENESIS,
            "first_seq": self._seq - len(self._records),
            "dropped": self._dropped(),
            "final_hash": self._prev_hash,
            "records": self.records,
        }
