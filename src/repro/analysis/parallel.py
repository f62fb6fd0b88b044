"""Parallel experiment runner: fan table cells over worker processes.

Every table runner in :mod:`repro.analysis.experiments` is decomposed
into independent *cells* — ``(runner_name, args)`` pairs resolved
through :data:`~repro.analysis.experiments.CELL_RUNNERS`.  Each cell
builds its own fresh machines, so cells share no state and the fan-out
cannot change simulated numbers: the serial runners execute literally
the same cell functions in the same per-cell order.

On multi-core hosts the sweep distributes over a ``multiprocessing``
pool; on single-CPU hosts (or when ``workers=1``, or when no pool can
be created) it falls back to in-process serial execution.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import observatory as _observatory
from repro import telemetry
from repro.analysis import experiments

#: A unit of work: (runner name in CELL_RUNNERS, positional args).
CellSpec = Tuple[str, tuple]


@dataclass
class CellResult:
    """One executed cell: its spec, value, and host-side timing.

    When the sweep runs under a telemetry session, ``telemetry`` carries
    the cell's own counters-only session as a metrics snapshot — the
    same shape whether the cell ran in-process or in a worker — so the
    parent can merge every cell's counters into its registry.
    """

    runner: str
    args: tuple
    value: Any
    wall_seconds: float
    telemetry: Optional[Dict[str, Any]] = field(default=None, repr=False)
    observatory: Optional[Dict[str, Any]] = field(default=None, repr=False)


def default_workers() -> int:
    """Worker count: one per usable CPU (affinity-aware), at least 1."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        usable = os.cpu_count() or 1
    return max(1, usable)


def _execute_cell(spec: CellSpec) -> CellResult:
    """Run one cell (in whatever process this lands in).

    If a telemetry session is installed (inherited across ``fork`` in
    pool workers), the cell runs under its *own* scoped counters-only
    session and ships that session's metrics snapshot back, so the
    in-process and pooled paths produce the same merged counters.
    """
    runner, args = spec
    cell_telemetry: Optional[Dict[str, Any]] = None
    cell_observatory: Optional[Dict[str, Any]] = None

    # With an observatory installed, the cell records into its own
    # spawned (same-config, zero-clock) observatory — scoped INSIDE the
    # cell's telemetry session so the window baseline is the fresh
    # session's zeros and the cell's windows depend only on its own
    # modeled activity.  The payload ships back like the metrics
    # snapshot and the parent absorbs them in spec order: byte-identical
    # at any worker count.
    def _invoke() -> Any:
        nonlocal cell_observatory
        if runner not in experiments.CELL_RUNNERS and \
                runner.startswith("fleet"):
            # Fleet cells register lazily (the fleet package is not on
            # the default import path of the experiment tables).
            import repro.fleet.campaign  # noqa: F401  (registers)
        parent_obs = _observatory.current()
        if parent_obs is None:
            return experiments.CELL_RUNNERS[runner](*args)
        with _observatory.scoped(parent_obs.spawn()) as obs:
            value = experiments.CELL_RUNNERS[runner](*args)
        cell_observatory = obs.to_dict()
        return value

    t0 = time.perf_counter()
    if telemetry.current() is None:
        value = _invoke()
    else:
        with telemetry.scoped(f"cell:{runner}", spans=False) as session:
            value = _invoke()
        cell_telemetry = session.metrics.snapshot()
    return CellResult(runner=runner, args=args, value=value,
                      wall_seconds=time.perf_counter() - t0,
                      telemetry=cell_telemetry, observatory=cell_observatory)


def _merge_cell_telemetry(cells: List[CellResult]) -> None:
    """Add each cell's shipped-back counters into the parent session."""
    session = telemetry.current()
    if session is None:
        return
    for cell in cells:
        if cell.telemetry is not None:
            session.metrics.merge_snapshot(cell.telemetry)


def _merge_cell_observatory(cells: List[CellResult]) -> None:
    """Hand each cell's windowed payload to the parent observatory.

    Cells are absorbed in spec order and kept per-cell (each cell has
    its own zero-based clock), so the parent's ``cells`` list — and
    any artifact built from it — is byte-identical at any worker count.
    """
    parent = _observatory.current()
    if parent is None:
        return
    for cell in cells:
        if cell.observatory is not None:
            parent.absorb_cell(cell.observatory, cell.runner, cell.args)


def run_cells(specs: List[CellSpec], workers: Optional[int] = None
              ) -> List[CellResult]:
    """Execute cells, in parallel when it can help.

    Results come back in spec order regardless of completion order, so
    merge functions see the same sequence the serial runners produce.
    """
    cells = _run_cells_raw(specs, workers)
    _merge_cell_telemetry(cells)
    _merge_cell_observatory(cells)
    return cells


def _run_cells_raw(specs: List[CellSpec], workers: Optional[int]
                   ) -> List[CellResult]:
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(specs) <= 1:
        return [_execute_cell(spec) for spec in specs]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return [_execute_cell(spec) for spec in specs]
    try:
        with ctx.Pool(processes=min(workers, len(specs))) as pool:
            return pool.map(_execute_cell, specs)
    except OSError:  # pragma: no cover - pool creation denied
        return [_execute_cell(spec) for spec in specs]


def _run_table(table: str, specs: List[CellSpec],
               workers: Optional[int]) -> Any:
    _, merge = experiments.TABLE_PLANS[table]
    return merge([(c.args, c.value) for c in run_cells(specs, workers)])


def run_table4(iterations: int = 5, workers: Optional[int] = None
               ) -> Dict[str, Dict[str, Any]]:
    """Parallel :func:`~repro.analysis.experiments.run_table4`."""
    return _run_table("table4", experiments.table4_specs(iterations),
                      workers)


def run_table5(workers: Optional[int] = None) -> Dict[str, Dict[str, Any]]:
    """Parallel :func:`~repro.analysis.experiments.run_table5`."""
    return _run_table("table5", experiments.table5_specs(), workers)


def run_table6(sizes_mb: Tuple[int, ...] = (128, 256, 512, 1024),
               workers: Optional[int] = None) -> Dict[int, Dict[str, Any]]:
    """Parallel :func:`~repro.analysis.experiments.run_table6`."""
    return _run_table("table6", experiments.table6_specs(sizes_mb),
                      workers)


def run_table7(iterations: int = 5, workers: Optional[int] = None
               ) -> Dict[str, Dict[str, Any]]:
    """Parallel :func:`~repro.analysis.experiments.run_table7`."""
    return _run_table("table7", experiments.table7_specs(iterations),
                      workers)
