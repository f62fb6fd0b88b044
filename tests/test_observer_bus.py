"""The observer bus: one dormant check per seam, one handler per
observer, and observers that never move a modeled counter."""

import ast
from pathlib import Path

import pytest

from repro import audit, observatory, observe, telemetry
from repro.analysis import experiments
from repro.audit.recorder import FlightRecorder
from repro.core import convention, fastpath

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Each observer package's former module global.
PRIVATE_GLOBALS = {"telemetry": "_session", "audit": "_recorder",
                   "observatory": "_session"}


def _observer_aliases(tree):
    """Local name -> observer package, for every import of one."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "repro":
            for alias in node.names:
                if alias.name in PRIVATE_GLOBALS:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package = alias.name.split(".")
                if package[:1] == ["repro"] and len(package) == 2 and \
                        package[1] in PRIVATE_GLOBALS and alias.asname:
                    aliases[alias.asname] = package[1]
    return aliases


def _global_reads(path):
    """(line, package) for every read of an observer's private global."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = _observer_aliases(tree)
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Name):
            package = aliases.get(value.id)
        elif isinstance(value, ast.Attribute):
            # ``repro.telemetry._session`` or a module bound to an
            # attribute (``self._audit._recorder``).
            package = value.attr.lstrip("_")
        else:
            continue
        if PRIVATE_GLOBALS.get(package) == node.attr:
            hits.append((node.lineno, package))
    return hits


def test_only_the_bus_and_owners_read_observer_globals():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative == Path("observe.py"):
            continue
        for line, package in _global_reads(path):
            if relative.parts[0] != package:
                offenders.append(f"{relative}:{line} reads "
                                 f"{package}.{PRIVATE_GLOBALS[package]}")
    assert offenders == []


def test_guard_sees_a_planted_read(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("from repro import telemetry as _t\n"
                       "import repro.audit\n"
                       "session = _t._session\n"
                       "recorder = repro.audit._recorder\n")
    assert _global_reads(planted) == [(3, "telemetry"), (4, "audit")]


@pytest.mark.parametrize("cls", [telemetry.TelemetrySession, FlightRecorder,
                                 observatory.Observatory])
def test_each_observer_has_one_seam_handler(cls):
    handlers = {name for name in vars(cls) if name.startswith("on_")}
    # ``Observatory.on_boundary`` is the window sentinel's callback from
    # ``PerfCounters.charge``, not a bus seam.
    handlers.discard("on_boundary")
    assert handlers == {"on_event"}


def test_subscriber_tuple_is_none_when_dormant():
    assert observe.observers is None
    with telemetry.scoped("bus") as session:
        assert observe.observers == (session.on_event,)
    assert observe.observers is None


#: Every Table-4 column: native plus each system x variant.
COLUMNS = [(None, False)] + [(name, optimized)
                             for name in experiments.SYSTEMS
                             for optimized in (False, True)]


def _column_deltas(system_name, optimized, iterations=2):
    if system_name is None:
        surface = experiments._native_surface()
    else:
        surface = experiments._surface_for(system_name, optimized)
    out = {}
    for op, (method, divisor) in experiments.TABLE4_OPS.items():
        m = experiments._measure_op(surface, method, divisor, iterations)
        out[op] = (m.delta.instructions, m.delta.cycles,
                   dict(m.delta.events))
    return out


@pytest.mark.parametrize("fast", [False, True], ids=["stepwise", "fused"])
@pytest.mark.parametrize("system_name,optimized", COLUMNS,
                         ids=[f"{n or 'native'}-{'opt' if o else 'orig'}"
                              for n, o in COLUMNS])
def test_counters_identical_under_all_four_observers(system_name, optimized,
                                                     fast):
    """Every bus observer stacked (telemetry, audit, observatory; the
    name still counts xray, which has left the bus) moves no counter."""
    convention.clear_caches()
    with fastpath.scoped(fast):
        plain = _column_deltas(system_name, optimized)
        with telemetry.scoped("stacked") as session, \
                audit.scoped(FlightRecorder("stacked")) as recorder, \
                observatory.scoped() as obs:
            observed = _column_deltas(system_name, optimized)
    assert observed == plain
    # The observers really watched: counters, a conserved window series
    # and, for the redirecting systems, audit brackets.
    assert session.metrics.snapshot()["counters"]
    assert obs.to_dict()["crosscheck"]["ok"]
    if system_name is not None:
        assert len(recorder) > 0
