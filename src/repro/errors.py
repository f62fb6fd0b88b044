"""Exception hierarchy for the CrossOver reproduction.

Two families live here:

* **Simulated hardware faults** (:class:`HardwareFault` subclasses) —
  conditions a real processor would raise as exceptions or VM exits
  (privilege violations, EPT violations, world-table cache misses, ...).
  The simulated hypervisor catches and services some of them, exactly as
  privileged software would.
* **Simulator usage errors** (:class:`SimulationError` subclasses) —
  misuse of the simulator API itself (e.g. running a workload on a
  machine that was never powered on).

Fault classes map onto the paper's protection mechanisms (Table 3's
security checks) and onto the named injection sites of
:mod:`repro.faults.sites` that exercise them:

======================  ==============================  ==========================
fault class             paper mechanism (Table 3)       injection site
======================  ==============================  ==========================
WorldTableCacheMiss     WT/IWT caches are software-     hw.wt_cache_incoherence
                        managed; misses trap to the
                        hypervisor for manage_wtc
                        refill (Section 5.1)
WorldNotPresent         present bit checked on every    hw.entry_revoked,
                        world_call; revoked worlds      core.midcall_revocation
                        cannot be entered
NoSuchWorld             world-table walk by WID /       hw.entry_corrupt
                        context finds nothing; WIDs
                        are never reused, so stale
                        WIDs cannot alias new worlds
VMFuncFault             VMFUNC validates function       hw.vmfunc_fault
                        and EPTP-list index before
                        switching
InvalidOpcode           world_call requires the         (configuration, not
                        CrossOver hardware extension    injected)
EPTViolation            second-stage translation is     hw.translation_epoch_stale
                        revalidated after mapping       (epoch staleness)
                        changes
GuestOSError            hypercall handlers validate     hypervisor.hypercall_reject
                        and may reject guest requests
AuthorizationDenied     callee software authorizes      core.authorization_denial,
                        the hardware-delivered caller   hypervisor.forged_wid
                        WID (unforgeable; Section 3.4)
CallTimeout             watchdog timer bounds callee    core.callee_stall
                        execution (Section 3.4, DoS)
CalleeHang              the raw condition the           core.callee_stall
                        watchdog converts into
                        CallTimeout
ControlFlowViolation    caller-saved return state       (CFI check in the
                        detects mismatched returns      runtime return path)
WorldQuotaExceeded      per-VM world-creation quota     (quota check at
                        (DoS on the world table)        create_world)
AuditViolation          hash-chained flight-recorder    (offline: chain break
                        records make truncation and     or crosscheck mismatch
                        tampering detectable offline;   found by
                        chaining is worthwhile because  ``crossover audit
                        the recorded WIDs are the       --check``, not
                        hardware-authenticated ones     injected)
                        of Section 3.4
======================  ==============================  ==========================
"""

from __future__ import annotations

__all__ = [
    "CrossOverError",
    # -- simulated hardware faults
    "HardwareFault",
    "GeneralProtectionFault",
    "PageFault",
    "EPTViolation",
    "VMFuncFault",
    "InvalidOpcode",
    "WorldCallFault",
    "WorldTableCacheMiss",
    "NoSuchWorld",
    "WorldNotPresent",
    "VMExitRaised",
    # -- guest-OS level errors
    "GuestOSError",
    # -- CrossOver runtime (software) errors
    "WorldCallError",
    "AuthorizationDenied",
    "CallTimeout",
    "CalleeHang",
    "ControlFlowViolation",
    "WorldQuotaExceeded",
    "AuditViolation",
    # -- simulator usage errors
    "SimulationError",
    "ConfigurationError",
]


class CrossOverError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Simulated hardware faults
# ---------------------------------------------------------------------------


class HardwareFault(CrossOverError):
    """A fault the simulated processor raises during execution."""


class GeneralProtectionFault(HardwareFault):
    """Privilege violation: e.g. a CR3 write attempted at CPL > 0."""


class PageFault(HardwareFault):
    """Guest page-table walk failed (not-present / permission)."""

    def __init__(self, vaddr: int, *, write: bool = False, user: bool = False,
                 reason: str = "not-present") -> None:
        self.vaddr = vaddr
        self.write = write
        self.user = user
        self.reason = reason
        super().__init__(
            f"page fault at {vaddr:#x} ({reason}, write={write}, user={user})"
        )


class EPTViolation(HardwareFault):
    """Second-stage (EPT) translation failed; causes a VM exit."""

    def __init__(self, gpa: int, *, write: bool = False,
                 reason: str = "not-present") -> None:
        self.gpa = gpa
        self.write = write
        self.reason = reason
        super().__init__(f"EPT violation at GPA {gpa:#x} ({reason}, write={write})")


class VMFuncFault(HardwareFault):
    """Invalid VMFUNC invocation (bad function index or bad EPTP index)."""


class InvalidOpcode(HardwareFault):
    """Instruction not available in the current hardware configuration.

    Raised e.g. when ``world_call`` is executed on a machine whose
    :class:`~repro.hw.costs.HardwareFeatures` does not enable the
    CrossOver extension.
    """


class WorldCallFault(HardwareFault):
    """Base class for faults raised by the ``world_call`` datapath."""


class WorldTableCacheMiss(WorldCallFault):
    """WT/IWT cache lookup missed; trapped to the privileged software.

    ``kind`` is ``"wt"`` (callee lookup by WID) or ``"iwt"`` (caller
    lookup by context).  The hypervisor services the miss by walking the
    in-memory world table and filling the cache (``manage_wtc``).
    """

    def __init__(self, kind: str, key: object) -> None:
        self.kind = kind
        self.key = key
        super().__init__(f"world-table cache miss ({kind}) for key {key!r}")


class NoSuchWorld(WorldCallFault):
    """The world table has no entry for the given WID / context."""

    def __init__(self, key: object) -> None:
        self.key = key
        super().__init__(f"no world-table entry for {key!r}")


class WorldNotPresent(WorldCallFault):
    """The world-table entry exists but its present bit is clear."""


class VMExitRaised(HardwareFault):
    """Control transferred to the hypervisor via a VM exit.

    Used by code paths that model *unexpected* exits (e.g. an EPT
    violation in the middle of guest execution); deliberate exits such
    as ``vmcall`` are modelled as ordinary method calls instead.
    """

    def __init__(self, reason: str, qualification: object = None) -> None:
        self.reason = reason
        self.qualification = qualification
        super().__init__(f"VM exit: {reason}")


# ---------------------------------------------------------------------------
# Guest-OS level errors (simulated errno-style failures)
# ---------------------------------------------------------------------------


class GuestOSError(CrossOverError):
    """A simulated syscall failed; carries an errno-style code."""

    def __init__(self, errno: int, message: str) -> None:
        self.errno = errno
        self.message = message
        super().__init__(f"[errno {errno}] {message}")


# ---------------------------------------------------------------------------
# CrossOver runtime (software) errors
# ---------------------------------------------------------------------------


class WorldCallError(CrossOverError):
    """Software-level failure of the cross-world call runtime."""


class AuthorizationDenied(WorldCallError):
    """The callee's authorization policy rejected the caller's WID."""

    def __init__(self, caller_wid: int, detail: str = "") -> None:
        self.caller_wid = caller_wid
        self.detail = detail
        suffix = f": {detail}" if detail else ""
        super().__init__(f"world call from WID {caller_wid} denied{suffix}")


class CallTimeout(WorldCallError):
    """A world call was cancelled because the callee never returned."""


class CalleeHang(WorldCallError):
    """Signal used by tests/examples to model a callee that never returns."""


class ControlFlowViolation(WorldCallError):
    """The caller's return-state stack detected a mismatched return."""


class WorldQuotaExceeded(WorldCallError):
    """A VM tried to create more worlds than its hypervisor quota allows."""


class AuditViolation(CrossOverError):
    """An audit log failed offline verification.

    Raised when the flight recorder's hash chain is broken (a record
    was mutated, reordered, or the tail truncated) or when the log's
    causal reconstruction disagrees with an independent view of the
    same activity (span tracer / Figure-2 crosscheck).  ``seq`` names
    the offending record when one can be identified; ``check`` names
    the failed verification step (``link``, ``seq``, ``final``,
    ``genesis``, ``crosscheck``).
    """

    def __init__(self, message: str, *, seq: "int | None" = None,
                 check: str = "") -> None:
        self.seq = seq
        self.check = check
        where = f" (seq {seq})" if seq is not None else ""
        super().__init__(f"audit violation{where}: {message}")


# ---------------------------------------------------------------------------
# Simulator usage errors
# ---------------------------------------------------------------------------


class SimulationError(CrossOverError):
    """The simulator API was used incorrectly (not a modelled fault)."""


class ConfigurationError(SimulationError):
    """A machine/VM/system was configured inconsistently."""
