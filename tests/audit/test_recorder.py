"""Recorder semantics: install/scoped discipline, record shape,
zero-perturbation of modeled costs, ring bounding."""

from repro import audit
from repro.audit import FlightRecorder, RECORD_FIELDS, verify_chain
from repro.core.authorization import AllowListPolicy
from repro.core.call import CallRequest, WorldCallRuntime
from repro.core.world import WorldRegistry
from repro.hw.costs import FEATURES_CROSSOVER
from repro.testbed import build_two_vm_machine, enter_vm_kernel
from tests.audit import _feed


def _world_call_harness():
    machine, vm1, k1, vm2, k2 = build_two_vm_machine(
        features=FEATURES_CROSSOVER)
    machine.cpu.trace.enabled = False
    registry = WorldRegistry(machine)
    runtime = WorldCallRuntime(machine, registry)
    executor = k2.spawn("executor")

    def entry(request: CallRequest):
        name, *args = request.payload
        return k2.syscalls.invoke(executor, name, *args)

    enter_vm_kernel(machine, vm1)
    policy = AllowListPolicy()
    caller = registry.create_kernel_world(k1, label="K(vm1)")
    enter_vm_kernel(machine, vm2)
    callee = registry.create_kernel_world(
        k2, handler=entry, policy=policy, service_process=executor,
        label="K(vm2)")
    enter_vm_kernel(machine, vm1)
    policy.grant(caller.wid)
    runtime.setup_channel(caller, callee, pages=16)
    enter_vm_kernel(machine, vm1)
    machine.cpu.write_cr3(k1.master_page_table)
    return machine, runtime, caller, callee


class TestInstallDiscipline:
    def test_disabled_by_default(self):
        assert not audit.enabled()
        assert audit.current() is None

    def test_scoped_installs_and_restores(self):
        rec = FlightRecorder("scoped")
        with audit.scoped(rec) as active:
            assert active is rec
            assert audit.enabled()
            assert audit.current() is rec
        assert audit.current() is None

    def test_install_latest_wins(self):
        first = audit.install(FlightRecorder("one"))
        try:
            second = audit.install(FlightRecorder("two"))
            assert audit.current() is second
            assert audit.current() is not first
        finally:
            audit.uninstall()
        assert audit.current() is None

    def test_bad_algorithm_rejected(self):
        log = FlightRecorder("bad").to_log()
        assert log["algo"] == "sha256"
        log["algo"] = "crc32"
        assert [v["check"] for v in verify_chain(log)] == ["algo"]


class TestRecordShape:
    def test_every_record_has_all_fields_in_order(self):
        rec = FlightRecorder("shape")
        _feed(rec, "hw", "world_call", frm="K(vm1)", to="K(vm2)", caller_wid=1,
              callee_wid=2, mode="G", ring=0, cycles=10)
        _feed(rec, "core", "authorization", caller_wid=1, callee_wid=2,
              decision="allow")
        _feed(rec, "hv", "hypercall", frm="vm1", to="host", decision="deny",
              detail="number 0x10")
        _feed(rec, "fault", "fault_injected", site="hw.entry_revoked")
        for record in rec.records:
            assert tuple(record.keys()) == RECORD_FIELDS

    def test_seq_contiguous_from_zero(self):
        rec = FlightRecorder("seq")
        for _ in range(5):
            _feed(rec, "core", "recovery", detail="revalidate")
        assert [r["seq"] for r in rec.records] == [0, 1, 2, 3, 4]

    def test_epoch_is_relative_to_installation(self):
        from repro.hw import mem
        mem.bump_mapping_epoch()      # earlier process activity
        rec = FlightRecorder("epoch")
        _feed(rec, "core", "recovery", detail="revalidate")
        assert rec.records[0]["epoch"] == 0
        mem.bump_mapping_epoch()
        _feed(rec, "core", "recovery", detail="revalidate")
        assert rec.records[1]["epoch"] == 1


class TestRingBounding:
    def test_capacity_drops_oldest(self):
        rec = FlightRecorder("ring", capacity=3)
        for _ in range(10):
            _feed(rec, "core", "recovery", detail="wtc_refill")
        assert len(rec) == 3
        log = rec.to_log()
        assert log["dropped"] == 7
        assert log["first_seq"] == 7
        assert [r["seq"] for r in log["records"]] == [7, 8, 9]


class TestExportIsolation:
    def test_tampering_an_export_leaves_the_recorder_intact(self):
        rec = FlightRecorder("alias")
        for i in range(4):
            _feed(rec, "core", "call_begin", caller_wid=1, callee_wid=2,
                  cycles=i)
        exported = rec.to_log()
        exported["records"][1]["detail"] = "tampered"
        rec.records[2]["cycles"] += 1
        assert verify_chain(exported)
        assert verify_chain(rec.to_log()) == []
        assert rec.to_log()["records"][1]["detail"] == ""


class TestZeroPerturbation:
    def test_modeled_cycles_identical_with_recorder(self):
        machine_a, runtime_a, caller_a, callee_a = _world_call_harness()
        runtime_a.call(caller_a, callee_a.wid, ("getpid",))
        before_a = machine_a.cpu.perf.cycles
        runtime_a.call(caller_a, callee_a.wid, ("getpid",))
        bare = machine_a.cpu.perf.cycles - before_a

        machine_b, runtime_b, caller_b, callee_b = _world_call_harness()
        with audit.scoped(FlightRecorder("perturb")) as rec:
            runtime_b.call(caller_b, callee_b.wid, ("getpid",))
            before_b = machine_b.cpu.perf.cycles
            runtime_b.call(caller_b, callee_b.wid, ("getpid",))
            audited = machine_b.cpu.perf.cycles - before_b
        assert audited == bare
        assert len(rec) > 0

    def test_world_call_records_authentic_wids(self):
        machine, runtime, caller, callee = _world_call_harness()
        with audit.scoped(FlightRecorder("wids")) as rec:
            runtime.call(caller, callee.wid, ("getpid",))
        hw = [r for r in rec.records
              if r["fam"] == "hw" and r["kind"] == "world_call"]
        assert hw, "world calls must produce hw records"
        wids = {r["caller_wid"] for r in hw} | {r["callee_wid"]
                                               for r in hw}
        assert wids == {caller.wid, callee.wid}

    def test_call_brackets_balance(self):
        machine, runtime, caller, callee = _world_call_harness()
        with audit.scoped(FlightRecorder("brackets")) as rec:
            for _ in range(3):
                runtime.call(caller, callee.wid, ("getpid",))
        kinds = [r["kind"] for r in rec.records if r["fam"] == "core"]
        assert kinds.count("call_begin") == 3
        assert kinds.count("call_end") == 3
        assert kinds.count("authorization") == 3
