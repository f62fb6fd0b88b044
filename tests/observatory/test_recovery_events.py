"""Every recovery telemetry counts is also on the observatory timeline.

Telemetry's ``faults.recoveries{policy}`` counters and the
observatory's ``fault.recovery`` events watch the same seams; the
cross-VM legacy round trip and the marshal-cache repair once reached
only the first.
"""

from collections import Counter

from repro import faults, observatory, telemetry
from repro.core import convention
from repro.faults import FaultEngine, FaultPlan
from repro.faults.campaign import _CrossVMCell, _WorldCallCell
from repro.faults.sites import SITES


def _fire_once(cell, site_name, warm_up=False):
    """Run ``cell`` through one operation with ``site_name`` armed."""
    site = SITES[site_name]
    plan = FaultPlan(site=site_name, schedule=(0,), budget=1)
    with faults.scoped(FaultEngine([plan])) as engine:
        if warm_up:
            # Record integrity digests for the cached wires under the
            # (inert) engine, exactly as a campaign does.
            cell.operate(site)
        engine.begin_operation(0)
        cell.operate(site)
        assert site_name in engine.fired_this_op
        engine.end_operation()


def test_observatory_recoveries_match_telemetry_counters():
    convention.clear_caches()
    crossvm = _CrossVMCell("ShadowContext", ())
    worldcall = _WorldCallCell("ShadowContext", ())
    with telemetry.scoped("recoveries") as session:
        with observatory.scoped() as obs:
            _fire_once(crossvm, "hw.vmfunc_fault")
            _fire_once(worldcall, "core.marshal_cache_poison",
                       warm_up=True)
            _fire_once(worldcall, "hw.entry_revoked")
        counters = session.metrics.snapshot()["counters"]
    counted = {key[len("faults.recoveries{policy="):-1]: value
               for key, value in counters.items()
               if key.startswith("faults.recoveries{")}
    timeline = Counter(event["label"] for event in obs.store.to_events()
                       if event["kind"] == "fault.recovery")
    assert counted == {"crossvm_legacy": 1, "marshal_repair": 1,
                       "revalidate": 1}
    assert dict(timeline) == counted
