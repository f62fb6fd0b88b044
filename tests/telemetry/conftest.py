"""Shared fixture: the telemetry session of one recorded NULL-syscall
cell, as ``crossover audit`` records it."""

import pytest

from repro.audit import workload


@pytest.fixture(scope="session")
def traced_session():
    """``traced_session(system, optimized=False, calls=2)``: the closed
    session of :func:`repro.audit.workload.record_cell`, recorded once
    per argument tuple."""
    sessions = {}

    def session_of(system, optimized=False, calls=2):
        key = (system, optimized, calls)
        if key not in sessions:
            sessions[key] = workload.record_cell(system, optimized,
                                                 calls)[0]
        return sessions[key]

    return session_of
