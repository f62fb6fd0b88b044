"""Public API surface, testbed helpers, error hierarchy."""

import pytest

import repro
from repro import errors
from repro.hw.costs import FEATURES_VMFUNC
from repro.hw.cpu import Mode
from repro.hw import vmfunc as vmfunc_mod
from repro.testbed import (
    build_single_vm_machine,
    build_two_vm_machine,
    enter_vm_kernel,
    exit_to_host,
)


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_surface(self):
        machine = repro.Machine(features=repro.FEATURES_CROSSOVER)
        assert machine.cpu.features.crossover

    def test_fastpath_is_the_only_environment_knob(self):
        """``REPRO_FASTPATH`` (stepwise oracle vs fused fast path) is the
        one execution-tier switch; no other ``REPRO_*`` variable may be
        read anywhere in the package."""
        import ast
        import os

        def knob(node):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and \
                    node.value.startswith("REPRO_"):
                return node.value
            return None

        root = os.path.dirname(repro.__file__)
        found = {}
        for dirpath, _dirs, files in os.walk(root):
            for filename in files:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Call):
                        keys = node.args[:1]
                    elif isinstance(node, ast.Subscript):
                        keys = [node.slice]
                    elif isinstance(node, ast.Compare):
                        keys = [node.left]
                    else:
                        continue
                    for key in keys:
                        name = knob(key)
                        if name is not None:
                            found.setdefault(name, []).append(
                                os.path.relpath(path, root))
        assert set(found) == {"REPRO_FASTPATH"}, found


class TestErrorHierarchy:
    def test_everything_is_a_crossover_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not errors.CrossOverError:
                assert issubclass(obj, errors.CrossOverError), name

    def test_world_call_family(self):
        """Ordering-sensitive subclassing the runtime relies on."""
        assert issubclass(errors.AuthorizationDenied,
                          errors.WorldCallError)
        assert issubclass(errors.CalleeHang, errors.WorldCallError)
        assert issubclass(errors.CallTimeout, errors.WorldCallError)
        assert issubclass(errors.ControlFlowViolation,
                          errors.WorldCallError)

    def test_hardware_fault_family(self):
        for cls in (errors.GeneralProtectionFault, errors.PageFault,
                    errors.EPTViolation, errors.VMFuncFault,
                    errors.WorldTableCacheMiss, errors.NoSuchWorld):
            assert issubclass(cls, errors.HardwareFault)

    def test_guest_error_fields(self):
        err = errors.GuestOSError(2, "gone")
        assert err.errno == 2
        assert err.message == "gone"
        assert "errno 2" in str(err)


class TestTestbed:
    def test_enter_vm_kernel_idempotent(self):
        machine, vm, kernel = build_single_vm_machine()
        enter_vm_kernel(machine, vm)
        label = machine.cpu.world_label
        enter_vm_kernel(machine, vm)      # no-op
        assert machine.cpu.world_label == label

    def test_enter_vm_kernel_from_user(self):
        machine, vm, kernel = build_single_vm_machine()
        proc = kernel.spawn("p")
        enter_vm_kernel(machine, vm)
        kernel.enter_user(proc)
        enter_vm_kernel(machine, vm)
        assert machine.cpu.ring == 0

    def test_exit_to_host_idempotent(self):
        machine, vm, kernel = build_single_vm_machine()
        enter_vm_kernel(machine, vm)
        exit_to_host(machine)
        assert machine.cpu.mode is Mode.ROOT
        exit_to_host(machine)             # no-op
        assert machine.cpu.mode is Mode.ROOT

    def test_two_vm_names(self):
        machine, vm1, k1, vm2, k2 = build_two_vm_machine(
            names=("alpha", "beta"))
        assert vm1.name == "alpha" and vm2.name == "beta"
        assert k1.vm is vm1 and k2.vm is vm2


class TestVMFuncWrappers:
    def test_ept_switch_wrapper(self):
        machine, vm1, k1, vm2, k2 = build_two_vm_machine()
        enter_vm_kernel(machine, vm1)
        vmfunc_mod.ept_switch(machine.cpu, vm2.vm_id)
        assert machine.cpu.vm_name == "vm2"

    def test_world_call_wrapper(self):
        from repro.guestos.kernel import KERNEL_TEXT_GVA
        from repro.hw.costs import FEATURES_CROSSOVER
        from repro.hw.paging import PageTable
        from repro.machine import Machine

        machine = Machine(features=FEATURES_CROSSOVER)
        entries = []
        for name in ("a", "b"):
            vm = machine.hypervisor.create_vm(name)
            pt = PageTable(name)
            gpa = vm.map_new_page("code")
            pt.map(KERNEL_TEXT_GVA, gpa, user=False, executable=True)
            entry = machine.hypervisor.worlds.create_world(
                vm=vm, ring=0, page_table=pt, pc=KERNEL_TEXT_GVA)
            entries.append(entry)
            machine.cpu.wt_caches.fill(entry)
        machine.hypervisor.launch(machine.cpu,
                                  machine.hypervisor.vm_by_name("a"))
        machine.cpu.write_cr3(entries[0].page_table)
        caller_wid = vmfunc_mod.world_call(machine.cpu, entries[1].wid)
        assert caller_wid == entries[0].wid

    def test_manage_wtc_wrapper(self, crossover_machine):
        from repro.hw.paging import PageTable

        machine = crossover_machine
        entry = machine.world_table.create(
            host_mode=True, ring=0, ept=None, page_table=PageTable(),
            pc=0)
        vmfunc_mod.manage_wtc(machine.cpu, "fill", entry)
        assert machine.cpu.wt_caches.lookup_callee(entry.wid) is entry
        vmfunc_mod.manage_wtc(machine.cpu, "invalidate", entry)

    def test_manage_wtc_bad_operation(self, crossover_machine):
        from repro.errors import SimulationError
        from repro.hw.paging import PageTable

        machine = crossover_machine
        entry = machine.world_table.create(
            host_mode=True, ring=0, ept=None, page_table=PageTable(),
            pc=0)
        with pytest.raises(SimulationError):
            machine.cpu.manage_wtc("defrag", entry)


class TestAuditSurface:
    """The audit subsystem's public surface and its off-by-default
    discipline (PR 5)."""

    def test_exports_resolve(self):
        from repro import audit
        for name in audit.__all__:
            assert getattr(audit, name) is not None

    def test_core_names_importable(self):
        from repro.audit import (       # noqa: F401
            DETECTORS,
            FlightRecorder,
            RECORD_FIELDS,
            run_detectors,
            verify_chain,
        )
        assert callable(verify_chain)
        assert isinstance(DETECTORS, dict) and DETECTORS

    def test_disabled_by_default_on_clean_import(self):
        from repro import audit
        assert audit.current() is None
        assert not audit.enabled()

    def test_audit_package_is_a_leaf(self):
        """Hot datapath modules (hw.cpu, hw.trace, core.call, ...)
        import repro.audit at module top; audit's core modules must
        never import the machine stack at module top or the cycle
        would bite.  (Lazy function-level imports are fine.)"""
        import ast
        import os
        from repro import audit
        banned = ("repro.hw", "repro.core", "repro.hypervisor",
                  "repro.machine", "repro.systems", "repro.telemetry",
                  "repro.analysis", "repro.workloads")
        package_dir = os.path.dirname(audit.__file__)
        for filename in ("__init__.py", "chain.py", "recorder.py",
                         "graph.py", "detectors.py"):
            with open(os.path.join(package_dir, filename)) as fh:
                tree = ast.parse(fh.read())
            for node in tree.body:      # top level only
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                for name in names:
                    assert not name.startswith(banned), \
                        f"{filename} imports {name} at module top"

    def test_audit_violation_in_errors(self):
        from repro.errors import AuditViolation
        err = AuditViolation("chain broken", seq=7, check="link")
        assert err.seq == 7
        assert err.check == "link"
        assert "seq 7" in str(err)


class TestSwitchlessSurface:
    """The switchless subsystem's public surface and its
    off-by-default discipline (PR 7)."""

    def test_exports_resolve(self):
        from repro import switchless
        for name in switchless.__all__:
            assert getattr(switchless, name) is not None

    def test_core_names_importable(self):
        from repro.switchless import (   # noqa: F401
            AdaptivePolicy,
            STAT_FIELDS,
            SwitchlessEngine,
            SwitchlessStats,
        )
        assert "calls" in STAT_FIELDS

    def test_disabled_by_default_on_clean_import(self):
        from repro import switchless
        assert switchless._engine is None
        assert not switchless.enabled()
        assert switchless.current() is None

    def test_scoped_restores_previous_engine(self):
        from repro import switchless
        from repro.switchless import SwitchlessEngine
        with switchless.scoped(SwitchlessEngine()) as outer:
            with switchless.scoped(SwitchlessEngine(force=True)) as inner:
                assert switchless.current() is inner
            assert switchless.current() is outer
        assert switchless.current() is None

    def test_switchless_core_modules_are_leaves(self):
        """Hot datapath modules (core.call, core.crossvm) import
        repro.switchless at module top; the engine and policy modules
        must never import the machine stack at module top or the cycle
        would bite.  (Lazy function-level imports are fine; campaign
        and cli may import anything — __init__ does not pull them.)"""
        import ast
        import os
        from repro import switchless
        banned = ("repro.hw", "repro.core", "repro.hypervisor",
                  "repro.machine", "repro.systems", "repro.telemetry",
                  "repro.analysis", "repro.workloads")
        package_dir = os.path.dirname(switchless.__file__)
        for filename in ("__init__.py", "engine.py", "policy.py"):
            with open(os.path.join(package_dir, filename)) as fh:
                tree = ast.parse(fh.read())
            for node in tree.body:      # top level only
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                for name in names:
                    assert not name.startswith(banned), \
                        f"{filename} imports {name} at module top"

    def test_call_seam_accepts_mechanism_keyword(self):
        import inspect
        from repro.core.call import WorldCallRuntime
        signature = inspect.signature(WorldCallRuntime.call)
        assert "mechanism" in signature.parameters


class TestObservatorySurface:
    """The observatory's public surface and its off-by-default
    discipline (PR 8)."""

    def test_exports_resolve(self):
        from repro import observatory
        for name in observatory.__all__:
            assert getattr(observatory, name) is not None

    def test_disabled_by_default_on_clean_import(self):
        from repro import observatory
        assert not observatory.enabled()
        assert observatory.current() is None

    def test_dormant_perf_counters_carry_the_sentinel(self):
        from repro import observatory
        from repro.hw.perf import PerfCounters
        perf = PerfCounters()
        assert perf._obs is None
        assert perf._obs_next == observatory._OBS_DISABLED

    def test_scoped_restores_previous_observatory(self):
        from repro import observatory
        with observatory.scoped() as outer:
            with observatory.scoped() as inner:
                assert observatory.current() is inner
            assert observatory.current() is outer
        assert observatory.current() is None

    def test_observatory_core_modules_are_leaves(self):
        """hw.perf, the subsystem engines and core.call import
        repro.observatory at module top; the store and SLO modules must
        never import the machine stack — or any subsystem that imports
        the observatory — at module top, or the cycle would bite."""
        import ast
        import os
        from repro import observatory
        banned = ("repro.hw", "repro.core", "repro.hypervisor",
                  "repro.machine", "repro.systems", "repro.telemetry",
                  "repro.analysis", "repro.workloads",
                  "repro.switchless", "repro.faults", "repro.audit")
        package_dir = os.path.dirname(observatory.__file__)
        for filename in ("__init__.py", "store.py", "slo.py"):
            with open(os.path.join(package_dir, filename)) as fh:
                tree = ast.parse(fh.read())
            for node in tree.body:      # top level only
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                for name in names:
                    assert not name.startswith(banned), \
                        f"{filename} imports {name} at module top"


class TestFleetSurface:
    """The fleet package's public surface and its runner-layer (not
    module-global) discipline (PR 9)."""

    def test_exports_resolve(self):
        from repro import fleet
        for name in fleet.__all__:
            assert getattr(fleet, name) is not None

    def test_importing_fleet_hooks_nothing(self):
        """repro.fleet is a runner-layer engine: importing it must not
        install a module-global engine anywhere."""
        import repro.fleet  # noqa: F401
        from repro import faults, switchless, telemetry
        assert switchless._engine is None
        assert faults._engine is None
        assert telemetry.current() is None

    def test_cell_runner_registered_lazily(self):
        """The pool resolves 'fleetcell' even when the campaign module
        was not imported in the worker process."""
        from repro.analysis import parallel
        results = parallel.run_cells(
            [("fleetcell", (2, "world_call", 0, 0.5, 1, 0, 4, 1.0))],
            workers=1)
        assert results[0].value["tenants"] == 2

    def test_cli_entry_points_exposed(self):
        import importlib
        from pathlib import Path

        from repro.campaign import build_parser, main
        assert callable(main)
        parser = build_parser()
        assert parser.prog == "crossover"
        subcommands = next(action for action in parser._actions
                           if action.dest == "campaign").choices
        assert set(subcommands) == {"faults", "switchless", "fleet",
                                    "audit", "observatory", "paper"}

        # The one console script is the harness, so a deleted CLI
        # cannot come back as a script.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert set(scripts) == {"crossover"}
        for target in scripts.values():
            module, _, attr = target.partition(":")
            assert callable(getattr(importlib.import_module(module), attr))
