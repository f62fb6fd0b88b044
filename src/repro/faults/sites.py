"""The injection-site catalog: every named fault the engine can raise.

Each :class:`FaultSite` names one point in the world-call datapath
(its ``hookpoint``), the layer it models (``hw`` / ``hypervisor`` /
``core``), which campaign operation exercises it (``op``), the outcome
the recovery policies are expected to produce (``expect``), and an
``action`` that performs the actual corruption when a plan fires.

Actions mutate *simulated* state only (world-table entries, caches,
interrupt queues, marshaling caches) or raise the fault class the real
hardware/hypervisor would deliver.  State mutations that must not
outlive the operation register an undo closure with the engine, which
runs them in reverse order at ``end_operation`` — a safety net for the
cases where the recovery policies never touched the corrupted state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import (
    AuthorizationDenied,
    CalleeHang,
    GuestOSError,
    VMFuncFault,
)

#: Spurious vectors queued by the injection-storm site.
STORM_VECTORS = 6

#: WID value presented by the forged-WID site; world IDs are allocated
#: monotonically from 1, so this never names a registered world.
FORGED_WID = 0x7FFF_FFFF


@dataclass(frozen=True)
class FaultSite:
    """One named injection site."""

    name: str
    layer: str          # "hw" | "hypervisor" | "core"
    hookpoint: str      # where in the datapath the engine fires it
    op: str             # campaign op kind: worldcall | crossvm | baseline
    expect: str         # outcome under full recovery policies
    doc: str
    action: Callable[[Any, Mapping[str, Any]], Any]
    #: Pre-fire filter on the hookpoint context; unlike a plan trigger
    #: it runs *before* budget accounting, so a non-matching hook visit
    #: (e.g. a world_call VMFUNC at the EPT-switch site) costs nothing.
    match: Optional[Callable[[Mapping[str, Any]], bool]] = None


# ---------------------------------------------------------------------------
# hw layer
# ---------------------------------------------------------------------------

def _act_wt_cache_incoherence(engine, ctx) -> None:
    """Drop every WT/IWT cache line, as if invalidations were lost."""
    cpu = ctx["cpu"]
    if cpu.wt_caches is not None:
        cpu.wt_caches.flush()


def _act_entry_revoked(engine, ctx) -> None:
    """Clear the callee entry's present bit (transient revocation)."""
    service = ctx["service"]
    entry = service.table.peek(ctx["callee_wid"])
    if entry is None:
        return
    entry.present = False
    engine.add_undo(lambda: setattr(entry, "present", True))


def _act_entry_corrupt(engine, ctx) -> None:
    """Lose the callee's entry from the in-memory table entirely."""
    service = ctx["service"]
    cpu = ctx["cpu"]
    entry = service.table.evict(ctx["callee_wid"])
    if entry is None:
        return
    if cpu.wt_caches is not None:
        cpu.wt_caches.invalidate(entry)
    engine.add_undo(lambda: service.table.restore_entry(entry))


def _act_translation_epoch_stale(engine, ctx) -> None:
    """Bump the global mapping epoch: every memoized translation goes
    stale and must be re-walked."""
    from repro.hw import mem

    mem.bump_mapping_epoch()


def _act_vmfunc_fault(engine, ctx) -> None:
    raise VMFuncFault("injected VMFUNC failure (fault campaign)")


def _match_ept_switch(ctx) -> bool:
    # VMFUNC fn 0 is the EPTP switch; fn 1 (world_call) has its own
    # fault surface and is exercised by the other hw sites.
    return ctx.get("function") == 0


# ---------------------------------------------------------------------------
# hypervisor layer
# ---------------------------------------------------------------------------

def _act_hypercall_reject(engine, ctx) -> None:
    raise GuestOSError(13, "hypercall handler rejected the request "
                           "(fault campaign)")


def _act_forged_wid(engine, ctx) -> int:
    """Present a forged caller WID to the callee's software layer.

    The hardware-delivered WID is unforgeable (Section 3.4); what a
    compromised software layer *can* do is lie to the callee's
    authorization check.  The runtime keeps using the authentic WID for
    the return transition, so only the policy check sees the forgery.
    """
    return FORGED_WID


def _act_injection_storm(engine, ctx) -> None:
    """Queue a burst of spurious timer interrupts ahead of delivery."""
    from repro.hypervisor.injection import VECTOR_TIMER

    vm = ctx["vm"]
    for i in range(STORM_VECTORS):
        vm.queue_virq(VECTOR_TIMER, f"spurious storm {i} (fault campaign)")


# ---------------------------------------------------------------------------
# core layer
# ---------------------------------------------------------------------------

def _act_authorization_denial(engine, ctx) -> None:
    raise AuthorizationDenied(ctx.get("caller_wid", -1),
                              "injected policy denial (fault campaign)")


def _act_marshal_cache_poison(engine, ctx) -> None:
    """Scribble every cached round-trip wire (cache poisoning)."""
    from repro.core import convention

    convention.poison_roundtrip_cache()


def _act_callee_stall(engine, ctx) -> None:
    raise CalleeHang("injected callee stall (fault campaign)")


def _act_midcall_revocation(engine, ctx) -> None:
    """Revoke the *caller's* entry while the CPU is in the callee."""
    entry = ctx["caller"].entry
    entry.present = False
    engine.add_undo(lambda: setattr(entry, "present", True))


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

_SITES: Tuple[FaultSite, ...] = (
    FaultSite(
        name="hw.wt_cache_incoherence", layer="hw",
        hookpoint="hv.worlds.call", op="worldcall", expect="recovered",
        doc="WT/IWT caches flushed as if invalidations were lost; the "
            "next lookup misses and the hypervisor refills via "
            "manage_wtc (Section 5.1).",
        action=_act_wt_cache_incoherence),
    FaultSite(
        name="hw.entry_revoked", layer="hw",
        hookpoint="hv.worlds.call", op="worldcall", expect="recovered",
        doc="Callee entry's present bit cleared (transient revocation); "
            "world_call faults WorldNotPresent and the runtime asks the "
            "hypervisor to re-validate the entry, then retries.",
        action=_act_entry_revoked),
    FaultSite(
        name="hw.entry_corrupt", layer="hw",
        hookpoint="hv.worlds.call", op="worldcall",
        expect="degraded-to-legacy",
        doc="Callee entry lost from the in-memory world table; the walk "
            "raises NoSuchWorld and the runtime degrades to the legacy "
            "vmcall/trap redirection path.",
        action=_act_entry_corrupt),
    FaultSite(
        name="hw.translation_epoch_stale", layer="hw",
        hookpoint="hv.worlds.call", op="worldcall", expect="recovered",
        doc="Global mapping epoch bumped mid-stream: memoized "
            "translations go stale and are transparently re-walked "
            "(no stale-epoch reuse).",
        action=_act_translation_epoch_stale),
    FaultSite(
        name="hw.vmfunc_fault", layer="hw",
        hookpoint="hw.vmfunc", op="crossvm", expect="degraded-to-legacy",
        doc="VMFUNC EPTP switch fails (fn 0); the cross-VM dispatcher "
            "unwinds the helper context and falls back to the trap-based "
            "hypervisor-mediated round trip.",
        action=_act_vmfunc_fault, match=_match_ept_switch),
    FaultSite(
        name="hypervisor.hypercall_reject", layer="hypervisor",
        hookpoint="hv.hypercall", op="worldcall", expect="recovered",
        doc="Hypercall handler rejects the request (errno 13); the "
            "watchdog-arming path retries the round trip once.",
        action=_act_hypercall_reject),
    FaultSite(
        name="hypervisor.forged_wid", layer="hypervisor",
        hookpoint="core.call.present", op="worldcall",
        expect="denied-cleanly",
        doc="A forged caller WID is presented to the callee's software "
            "authorization; the allow-list policy denies it and the "
            "caller unwinds cleanly (Table 3: software authorization).",
        action=_act_forged_wid),
    FaultSite(
        name="hypervisor.injection_storm", layer="hypervisor",
        hookpoint="hv.inject.deliver", op="baseline", expect="recovered",
        doc="A burst of spurious timer vectors is queued ahead of a "
            "legitimate injection; all are delivered and absorbed "
            "through the guest IDT.",
        action=_act_injection_storm),
    FaultSite(
        name="core.authorization_denial", layer="core",
        hookpoint="core.call.authorize", op="worldcall",
        expect="denied-cleanly",
        doc="The callee's policy check denies the (authentic) caller; "
            "the denial is marshaled back and the caller's context is "
            "restored by the normal return path.",
        action=_act_authorization_denial),
    FaultSite(
        name="core.marshal_cache_poison", layer="core",
        hookpoint="core.call.pre", op="worldcall", expect="recovered",
        doc="Every cached round-trip wire is corrupted; the integrity "
            "check on cache hits detects the mismatch, drops the entry, "
            "and re-marshals from the live payload.",
        action=_act_marshal_cache_poison),
    FaultSite(
        name="core.callee_stall", layer="core",
        hookpoint="core.call.handler", op="worldcall", expect="recovered",
        doc="The callee's handler never returns; the armed hypervisor "
            "watchdog fires, forcibly restores the caller's world, and "
            "the call raises CallTimeout (Section 3.4).",
        action=_act_callee_stall),
    FaultSite(
        name="core.midcall_revocation", layer="core",
        hookpoint="core.call.return", op="worldcall", expect="recovered",
        doc="The caller's entry is revoked while the CPU runs the "
            "callee; the returning world_call faults and the runtime "
            "re-validates the caller's entry before retrying the "
            "return, fully unwinding caller state.",
        action=_act_midcall_revocation),
)

#: name -> FaultSite for engine lookups.
SITES: Dict[str, FaultSite] = {site.name: site for site in _SITES}

#: Catalog order, used by campaigns and docs.
SITE_NAMES: Tuple[str, ...] = tuple(site.name for site in _SITES)
