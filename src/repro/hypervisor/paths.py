"""Trap round trips as data: one row per hypervisor-mediated step.

A :class:`TrapPath` states one single-body baseline path (Figure 2,
Table 7) once: the rows that leave the caller's VM and deliver work
into the callee's, and the rows that come back after the body.
:meth:`~repro.hypervisor.hypervisor.Hypervisor.redirect` walks them.
A :class:`Step` holds its primitive, its exit reason, charge name or
target VM, its trace detail, that event's profiler label and an inject
row's vector, so a path's charges and its attribution cannot drift.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError
from repro.hw.vmx import ExitReason
from repro.hypervisor.injection import VECTOR_SYSCALL_REDIRECT

# The primitives a row can name.
EXIT = "exit"              # vmexit(reason) + the hypervisor's handling
CHARGE = "charge"          # one named cost-model charge
COPY = "copy"              # copy the request (before the body) or reply
INJECT = "inject"          # queue the row's vector on the target VM
SCHEDULE = "schedule"      # the host scheduler picks the target VM
LAUNCH = "launch"          # VM entry into the target VM
TRAP_IF_USER = "trap"      # syscall trap if the entry landed at CPL 3
WAKE = "wake"              # callee kernel switches to the executor
SYSRET = "sysret"          # into the executor's user mode
SLEEP = "sleep"            # the executor blocks: callee kernel idles
RUN = "run"                # the caller's own step (a shim, a device model)

# Target VMs of INJECT, SCHEDULE and LAUNCH rows.
CALLER = "caller"
CALLEE = "callee"

#: The trace event kind each labelable primitive records.
_EVENT_KINDS = {EXIT: "vmexit", SCHEDULE: "vm_schedule", LAUNCH: "vmentry",
                TRAP_IF_USER: "syscall_trap", SYSRET: "sysret"}


class Step(NamedTuple):
    """One row of a trap round trip."""

    op: str
    arg: Optional[str] = None      # exit reason, charge name or target
    detail: str = ""
    label: Optional[str] = None    # profiler path-step label
    vector: int = VECTOR_SYSCALL_REDIRECT   # an INJECT row's vector


class TrapPath:
    """A single-body trap round trip: ``enter`` runs before the body,
    ``leave`` after it.  A call that starts in the host kernel skips
    the leading exit and the trailing resume (``host_enter``/``_leave``).
    """

    def __init__(self, enter: Tuple[Step, ...],
                 leave: Tuple[Step, ...]) -> None:
        self.enter = enter
        self.leave = leave
        self.host_enter = enter[1:] if enter[0].op == EXIT else enter
        resumes = leave[-1][:2] == (LAUNCH, CALLER)
        self.host_leave = leave[:-1] if resumes else leave
        self.copies_reply = any(step.op == COPY for step in leave)


def step_labels(paths: Iterable[TrapPath]) -> Dict[Tuple[str, str], str]:
    """``(event kind, detail) -> profiler label`` of every labeled row
    of ``paths``.  A label on a row that records no event, or two
    labels for one ``(kind, detail)``, is a configuration error."""
    merged: Dict[Tuple[str, str], str] = {}
    for path in paths:
        for op, _arg, detail, label, _vector in path.enter + path.leave:
            if label is None:
                continue
            if op not in _EVENT_KINDS:
                raise ConfigurationError(
                    f"a {op!r} row records no event to label")
            key = (_EVENT_KINDS[op], detail)
            if merged.setdefault(key, label) != label:
                raise ConfigurationError(
                    f"{key} labeled both {merged[key]!r} and {label!r}")
    return merged


#: The hypervisor's default frame: vmcall out, inject the redirect
#: vector into the callee, enter it, and vmcall back when done.
TRAP_AND_INJECT = TrapPath(
    enter=(Step(EXIT, ExitReason.VMCALL, "redirect"),
           Step(INJECT, CALLEE, "redirect"),
           Step(LAUNCH, CALLEE, "deliver redirect"),
           Step(TRAP_IF_USER, None, "redirect entry")),
    leave=(Step(EXIT, ExitReason.VMCALL, "redirect done"),
           Step(LAUNCH, CALLER, "resume")))
