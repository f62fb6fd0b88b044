"""Recovery-policy tests: each injected fault class against the policy
that absorbs it, at the datapath level (no campaign driver)."""

import pytest

from repro import faults
from repro.errors import (
    AuthorizationDenied,
    CallTimeout,
    GuestOSError,
    NoSuchWorld,
    VMFuncFault,
    WorldNotPresent,
)
from repro.faults import FaultEngine, FaultPlan
from repro.faults.campaign import _BaselineCell, _CrossVMCell, _WorldCallCell
from repro.faults.sites import SITES


def _one_shot(site: str) -> FaultEngine:
    return FaultEngine([FaultPlan(site=site, schedule=(0,), budget=1)])


def _faulted_op(cell, site_name: str):
    """Run one operation with ``site_name`` armed for it; returns
    (result, error, fired)."""
    site = SITES[site_name]
    with faults.scoped(_one_shot(site_name)) as engine:
        engine.begin_operation(0)
        result = error = None
        try:
            result = cell.operate(site)
        except Exception as exc:
            error = exc
        fired = site_name in engine.fired_this_op
        engine.end_operation()
    return result, error, fired


@pytest.fixture
def cell():
    return _WorldCallCell("ShadowContext", ())


class TestWorldCallRecovery:
    def test_revoked_entry_revalidated_and_retried(self, cell):
        clean = cell.operate(SITES["hw.entry_revoked"])
        result, error, fired = _faulted_op(cell, "hw.entry_revoked")
        assert fired and error is None and result == clean
        assert cell.runtime.recoveries["revalidate"] >= 1
        assert cell.runtime.legacy_calls == 0
        assert cell.state_ok()

    def test_corrupt_entry_degrades_to_legacy(self, cell):
        clean = cell.operate(SITES["hw.entry_corrupt"])
        result, error, fired = _faulted_op(cell, "hw.entry_corrupt")
        assert fired and error is None and result == clean
        assert cell.runtime.legacy_calls == 1
        assert cell.runtime.recoveries["legacy_fallback"] == 1
        assert cell.state_ok()

    def test_forged_wid_denied_cleanly(self, cell):
        result, error, fired = _faulted_op(cell, "hypervisor.forged_wid")
        assert fired
        assert isinstance(error, AuthorizationDenied)
        assert cell.state_ok()

    def test_callee_stall_cancelled_by_watchdog(self, cell):
        cell.runtime.arm_watchdog(cell.caller)
        result, error, fired = _faulted_op(cell, "core.callee_stall")
        assert fired
        assert isinstance(error, CallTimeout)
        assert cell.runtime.recoveries["watchdog_timeout"] == 1
        assert cell.state_ok()
        # the datapath stays usable after the cancelled call
        assert cell.operate(SITES["core.callee_stall"]) is not None

    def test_midcall_revocation_recovers_return_path(self, cell):
        clean = cell.operate(SITES["core.midcall_revocation"])
        result, error, fired = _faulted_op(cell, "core.midcall_revocation")
        assert fired and error is None and result == clean
        assert cell.runtime.recoveries["revalidate_return"] == 1
        assert cell.state_ok()

    def test_hypercall_reject_retried(self, cell):
        result, error, fired = _faulted_op(
            cell, "hypervisor.hypercall_reject")
        assert fired and error is None
        assert cell.runtime.recoveries["hypercall_retry"] == 1
        assert cell.state_ok()

    def test_marshal_poison_repaired(self, cell):
        from repro.core import convention
        convention.clear_caches()
        site = SITES["core.marshal_cache_poison"]
        repaired_before = convention.cache_stats["poison_repaired"]
        with faults.scoped(_one_shot(site.name)) as engine:
            # warm up under the (inert) engine so integrity digests are
            # recorded for the cached wires, exactly as a campaign does
            clean = cell.operate(site)
            engine.begin_operation(0)
            result = cell.operate(site)
            fired = site.name in engine.fired_this_op
            engine.end_operation()
        assert fired and result == clean
        assert convention.cache_stats["poison_repaired"] > repaired_before
        assert cell.state_ok()

    def test_wt_cache_flush_refilled(self, cell):
        clean = cell.operate(SITES["hw.wt_cache_incoherence"])
        result, error, fired = _faulted_op(
            cell, "hw.wt_cache_incoherence")
        assert fired and error is None and result == clean
        assert cell.state_ok()


class TestDisabledPolicies:
    def test_no_revalidate_no_legacy_propagates_fault(self):
        cell = _WorldCallCell(
            "ShadowContext", ("revalidate", "legacy_fallback"))
        result, error, fired = _faulted_op(cell, "hw.entry_revoked")
        assert fired
        assert isinstance(error, WorldNotPresent)
        # the failed transition unwound the caller cleanly
        assert cell.state_ok()

    def test_corrupt_without_legacy_raises(self):
        cell = _WorldCallCell("ShadowContext", ("legacy_fallback",))
        result, error, fired = _faulted_op(cell, "hw.entry_corrupt")
        assert fired
        assert isinstance(error, NoSuchWorld)
        assert cell.state_ok()


class TestCrossVMRecovery:
    def test_vmfunc_fault_degrades_to_legacy_roundtrip(self):
        cell = _CrossVMCell("ShadowContext", ())
        clean = cell.operate(SITES["hw.vmfunc_fault"])
        result, error, fired = _faulted_op(cell, "hw.vmfunc_fault")
        assert fired and error is None and result == clean
        assert cell.mech.recoveries["legacy_roundtrip"] == 1
        assert cell.state_ok()

    def test_vmfunc_fault_without_legacy_raises(self):
        cell = _CrossVMCell("ShadowContext", ("crossvm_legacy",))
        result, error, fired = _faulted_op(cell, "hw.vmfunc_fault")
        assert fired
        assert isinstance(error, VMFuncFault)
        assert cell.state_ok()


class TestBaselineRecovery:
    def test_injection_storm_absorbed(self):
        cell = _BaselineCell("ShadowContext", ())
        clean = cell.operate(SITES["hypervisor.injection_storm"])
        result, error, fired = _faulted_op(
            cell, "hypervisor.injection_storm")
        assert fired and error is None and result == clean
        assert cell.state_ok()

    def test_failed_redirected_syscall_resumes_the_caller(self):
        """A redirected syscall that fails in the peer raises only after
        the caller's VM is resumed."""
        cell = _BaselineCell("Proxos", ())
        cell.syscall = ("stat", ("/no/such/file",))
        with pytest.raises(GuestOSError) as exc:
            cell.operate(SITES["hypervisor.injection_storm"])
        assert exc.value.errno == 2
        assert cell.state_ok()
