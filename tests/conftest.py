"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.guestos import boot_kernel
from repro.hw.costs import (
    FEATURES_BASELINE,
    FEATURES_CROSSOVER,
    FEATURES_VMFUNC,
)
from repro.machine import Machine
from repro.testbed import (
    build_single_vm_machine,
    build_two_vm_machine,
    enter_vm_kernel,
)


@pytest.fixture
def machine():
    """A bare machine with VMFUNC hardware and no VMs."""
    return Machine(features=FEATURES_VMFUNC)


@pytest.fixture
def crossover_machine():
    """A bare machine with the full CrossOver extension."""
    return Machine(features=FEATURES_CROSSOVER)


@pytest.fixture
def baseline_machine():
    """A machine with plain VT-x (no VMFUNC)."""
    return Machine(features=FEATURES_BASELINE)


@pytest.fixture
def single_vm():
    """(machine, vm, kernel) with the CPU left in the host."""
    return build_single_vm_machine()


@pytest.fixture
def two_vms():
    """(machine, vm1, kernel1, vm2, kernel2), CPU in the host."""
    return build_two_vm_machine()


@pytest.fixture
def crossover_two_vms():
    """Two VMs on CrossOver hardware."""
    return build_two_vm_machine(features=FEATURES_CROSSOVER)


@pytest.fixture
def running_process(single_vm):
    """(machine, kernel, process) with the process running in ring 3."""
    machine, vm, kernel = single_vm
    proc = kernel.spawn("testproc")
    enter_vm_kernel(machine, vm)
    kernel.enter_user(proc)
    return machine, kernel, proc


@pytest.fixture(scope="session")
def paper_recording(tmp_path_factory):
    """``crossover paper`` recorded once per session, at ``--workers 1``
    and ``--workers 2``, each in a fresh process (Figure 5's world-table
    addresses come from process-wide allocators).  Returns the
    ``--workers 1`` run's stdout and both artifact paths."""
    import repro

    base = tmp_path_factory.mktemp("paper")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = [(base / f"paper-w{workers}.json", subprocess.Popen(
        [sys.executable, "-m", "repro.campaign", "paper", "--workers",
         workers, "--out", str(base / f"paper-w{workers}.json")],
        stdout=subprocess.PIPE, env=env, text=True))
        for workers in ("1", "2")]
    outputs = [proc.communicate()[0] for _, proc in runs]
    assert [proc.returncode for _, proc in runs] == [0, 0]
    return outputs[0], runs[0][0], runs[1][0]
