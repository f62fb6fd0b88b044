"""Cost-attribution profiler: determinism, attribution, and the
counters-only session."""

import json

import pytest

import sys

from repro import telemetry
from repro.analysis import experiments
from repro.hypervisor.paths import step_labels
from repro.systems import (STEP_LABELS, TRAP_PATHS, HyperShell, Proxos,
                           ShadowContext, Tahoma)
from repro.telemetry import profiler
from repro.testbed import build_two_vm_machine, enter_vm_kernel

#: The path-step labels of the four case-study baselines.
FIGURE2_STEPS = {
    ("vmexit", "proxos redirect"): "vmcall-entry",
    ("vm_schedule", "run commodity OS"): "schedule-commodity",
    ("vmentry", "deliver to commodity OS"): "inject-commodity",
    ("syscall_trap", "proxos enqueue"): "enqueue-trap",
    ("sysret", "run stub"): "wake-stub",
    ("vmexit", "proxos done"): "vmcall-done",
    ("vmentry", "resume private VM"): "resume-private",
    ("vmexit", "hypershell redirect"): "vmcall-entry",
    ("vmentry", "run helper"): "enter-guest",
    ("syscall_trap", "helper resumes"): "helper-resume-trap",
    ("sysret", "helper user"): "helper-user",
    ("vmexit", "helper INT3"): "int3-exit",
    ("vmentry", "inject syscall into helper"): "inject-syscall",
    ("vmexit", "helper done"): "int3-done",
    ("vmentry", "resume shell VM"): "resume-shell",
    ("vmexit", "browser blocks on RPC"): "rpc-block",
    ("vm_schedule", "run manager"): "schedule-manager",
    ("vmentry", "manager VM"): "enter-manager",
    ("syscall_trap", "manager wakeup"): "manager-wakeup",
    ("sysret", "manager user"): "manager-user",
    ("vmexit", "manager idles"): "manager-idle",
    ("vm_schedule", "resume browser"): "schedule-browser",
    ("vmentry", "browser VM"): "resume-browser",
    ("vmexit", "shadowcontext redirect"): "vmcall-entry",
    ("vmentry", "run dummy process"): "enter-untrusted",
    ("syscall_trap", "dummy dispatch"): "dummy-dispatch",
    ("sysret", "dummy user"): "dummy-user",
    ("vmexit", "shadowcontext done"): "vmcall-done",
    ("vmentry", "resume trusted VM"): "resume-trusted",
}


def _sweep_profile():
    """The profile of one in-process table4 sweep under a span
    session."""
    with telemetry.scoped("sweep") as session:
        experiments.run_table4()
    return profiler.profile_session(session, label="sweep")


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        first, second = _sweep_profile(), _sweep_profile()
        assert first.collapsed_stacks()  # something was attributed
        assert first.collapsed_stacks() == second.collapsed_stacks()
        assert (json.dumps(first.speedscope(), sort_keys=True)
                == json.dumps(second.speedscope(), sort_keys=True))

    def test_modeled_results_unchanged_by_profiling(self):
        spec = ("Proxos", False, 3)
        plain = experiments.table4_cell(*spec)
        with telemetry.scoped("full"):
            full = experiments.table4_cell(*spec)
        session = telemetry.install(
            telemetry.TelemetrySession.lightweight("light"))
        try:
            light = experiments.table4_cell(*spec)
        finally:
            telemetry.uninstall()
        assert plain == full == light


class TestAttribution:
    @pytest.fixture
    def proxos_profile(self, traced_session):
        session = traced_session("Proxos", calls=3)
        return session, profiler.profile_session(session)

    def test_stack_steps_labels_applied(self):
        """For each case study, every labeled row of its trap path names
        its step in a traced ``getppid`` profile (e.g. ``proxos/getppid/
        vmcall-entry``), and no raw exit, entry or schedule step leaks
        under that system's own stack.  The rows of every trap path give
        each ``(kind, detail)`` one label (``step_labels`` rejects a
        second), together the 29 path steps of Figure 2's four cases."""
        assert step_labels(TRAP_PATHS) == STEP_LABELS == FIGURE2_STEPS
        for system_cls in (Proxos, ShadowContext, HyperShell, Tahoma):
            machine, vm1, k1, vm2, k2 = build_two_vm_machine()
            system = system_cls(machine, vm1, vm2, optimized=False)
            enter_vm_kernel(machine, vm1)
            system.setup()
            enter_vm_kernel(machine, vm1)
            with telemetry.scoped("labels") as session:
                system.redirect_syscall("getppid")
                system.redirect_syscall("getppid")
            frame = system_cls.name.lower()
            steps = {stack[-1]
                     for stack in profiler.profile_session(session).stacks()
                     if stack[-3:-1] == (frame, "getppid")}
            path = sys.modules[system_cls.__module__].TRAP_PATH
            assert set(step_labels([path]).values()) <= steps, frame
            # Tahoma's TCP link also exits to the virtual NIC ("tx 19B"),
            # outside its trap path.
            raw = steps & {"vmexit", "vmentry", "vm_schedule"}
            assert raw == ({"vmexit", "vmentry"} if system_cls is Tahoma
                           else set()), frame

    def test_redirect_calls_counted(self, proxos_profile):
        _, profile = proxos_profile
        calls = sum(
            profile._entries[s].calls for s in profile.stacks()
            if len(s) >= 2 and s[-2] == "proxos" and s[-1] == "getppid")
        assert calls == 4   # 3 measured calls + the setup warm-up

    def test_crosscheck_clean(self, proxos_profile):
        session, profile = proxos_profile
        assert profiler.crosscheck(session, profile) == []

    def test_crosscheck_catches_overattribution(self, proxos_profile):
        session, _ = proxos_profile
        profile = profiler.profile_session(session)
        stack = profile.stacks()[0]
        profile._entries[stack].cross("vmexit", 10_000)
        errors = profiler.crosscheck(session, profile)
        assert errors and "vmexit" in errors[0]

    def test_totals_and_hotspots_consistent(self, proxos_profile):
        _, profile = proxos_profile
        totals = profile.totals()
        assert totals["cycles"] > 0
        assert totals["crossings"] > 0


class TestExports:
    @pytest.fixture
    def profile(self, traced_session):
        return profiler.profile_session(traced_session("HyperShell"))

    def test_collapsed_format(self, profile):
        text = profile.collapsed_stacks()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines == sorted(lines)
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert frames and int(weight) > 0

    def test_speedscope_document(self, profile):
        doc = profile.speedscope()
        assert doc["$schema"] == \
            "https://www.speedscope.app/file-format-schema.json"
        prof = doc["profiles"][0]
        assert prof["type"] == "sampled"
        assert len(prof["samples"]) == len(prof["weights"])
        n_frames = len(doc["shared"]["frames"])
        assert all(0 <= i < n_frames
                   for sample in prof["samples"] for i in sample)
        assert prof["endValue"] == sum(prof["weights"])

    def test_write_profile(self, profile, tmp_path):
        paths = profiler.write_profile(profile, str(tmp_path), "hs.")
        assert set(paths) == {"stacks", "speedscope"}
        stacks = (tmp_path / "hs.stacks.collapsed").read_text()
        assert stacks == profile.collapsed_stacks()
        doc = json.loads((tmp_path / "hs.speedscope.json").read_text())
        assert doc["profiles"][0]["type"] == "sampled"

    def test_invalid_weight_rejected(self, profile):
        with pytest.raises(ValueError):
            profile.collapsed_stacks(weight="wall")


class TestRingMode:
    """The counters-only session (:meth:`TelemetrySession.lightweight`),
    which replaced the sampled span ring."""

    def test_sampling_keeps_counters_complete(self):
        with telemetry.scoped("light", spans=False) as session:
            experiments.table4_cell("Proxos", False, 8)
        redirects = sum(
            c.value for c in
            session.metrics.family("system.redirects").values())
        assert redirects >= 8               # every redirect counted
        assert session.tracer.roots == []   # none of them spanned

    def test_counters_only_session_builds_no_span(self):
        session = telemetry.install(
            telemetry.TelemetrySession.lightweight("light"))
        try:
            experiments.table4_cell("ShadowContext", True, 4)
        finally:
            telemetry.uninstall()
        assert session.tracer.roots == []
        assert session.tracer.dropped == 0
        assert session.metrics.family("system.redirects")
        assert session.metrics.family("core.crossvm_roundtrips")
        assert profiler.profile_session(session).stacks() == []
        assert profiler.crosscheck(session) == []

    def test_lightweight_session_shape(self):
        session = telemetry.TelemetrySession.lightweight("lw")
        assert session.label == "lw"
        assert session.spans is False
        assert telemetry.TelemetrySession("full").spans is True

    def test_no_session_leaks(self):
        assert not telemetry.enabled()
