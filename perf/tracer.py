"""Host-time span tracer for the traced benchmark run.

The tracer wraps each layer's public entry points *from outside the
program*: it replaces class and module attributes with timing wrappers
and restores them on :meth:`Tracer.uninstall`.  Nothing under ``src/``
knows it exists.

Self time: every wrapper keeps a stack of open spans.  When a span
closes, its duration is added to its entry point's total and to the
enclosing span's child time; a span's self time is its duration minus
its child time.  A layer's self time is the sum of its entry points'
self times, so time spent in code nobody wrapped is charged to the
nearest enclosing entry point's layer.  Spans nested in the same layer
(``CPU.charge`` calling ``PerfCounters.charge``) never double count.

Aggregates are exact; raw spans (name, layer, start, end, parent, id)
are kept up to a cap and exported as Chrome-trace JSON.
"""

from __future__ import annotations

import contextlib
import fnmatch
import importlib
import itertools
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The ``src/repro`` packages whose host time the traced run splits.
LAYERS = ("analysis", "systems", "workloads", "guestos", "core",
          "hypervisor", "hw", "fleet", "xray", "telemetry", "audit",
          "observatory")

#: Each layer's wrapped entry points, as ``module:qualname``.  These are
#: the functions other layers (or the benchmark) call into; a trailing
#: ``*`` expands to every public method matching the pattern.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "analysis": (
        "repro.analysis.experiments:table4_cell",
        "repro.analysis.experiments:table5_cell",
        "repro.analysis.measure:measure_callable",
    ),
    "systems": (
        "repro.systems.base:CrossWorldSystem.setup",
        "repro.systems.base:CrossWorldSystem.redirect_syscall",
    ),
    "workloads": (
        "repro.workloads.lmbench:LmbenchSuite.setup",
        "repro.workloads.lmbench:LmbenchSuite.null_syscall",
        "repro.workloads.lmbench:LmbenchSuite.null_io",
        "repro.workloads.lmbench:LmbenchSuite.open_close",
        "repro.workloads.lmbench:LmbenchSuite.stat",
        "repro.workloads.lmbench:LmbenchSuite.pipe_round_trip",
        "repro.workloads.utilities:run_utility",
        "repro.workloads.utilities:prepare_inspection_environment",
    ),
    "guestos": (
        "repro.guestos.kernel:Kernel.spawn",
        "repro.guestos.kernel:Kernel.dispatch",
        "repro.guestos.kernel:Kernel.execute_syscall",
        "repro.guestos.syscalls:SyscallTable.invoke",
        "repro.guestos.process:Process.syscall",
        "repro.guestos.fs.vfs:VFS.resolve",
        "repro.guestos.fs.procfs:ProcFS.lookup",
    ),
    "core": (
        "repro.core.convention:encode",
        "repro.core.convention:decode",
        "repro.core.convention:roundtrip",
        "repro.core.call:WorldCallRuntime.call",
        "repro.core.call:WorldCallRuntime.setup_channel",
        "repro.core.crossvm:CrossVMSyscallMechanism.call",
        "repro.core.crossvm:CrossVMSyscallMechanism.call_function",
        "repro.core.crossvm:CrossVMSyscallMechanism.setup_pair",
        "repro.core.world:WorldRegistry.create_kernel_world",
    ),
    "hypervisor": (
        "repro.hypervisor.hypervisor:Hypervisor.create_vm",
        "repro.hypervisor.hypervisor:Hypervisor.launch",
        "repro.hypervisor.hypervisor:Hypervisor.hypercall",
        "repro.hypervisor.hypervisor:Hypervisor.exit_to_host",
        "repro.hypervisor.worlds:WorldService.create_world",
        "repro.hypervisor.worlds:WorldService.destroy_world",
        "repro.hypervisor.worlds:WorldService.world_call",
        "repro.hypervisor.worlds:WorldService.service_miss",
        "repro.hypervisor.injection:Injector.inject",
        "repro.hypervisor.injection:Injector.deliver_pending",
    ),
    "hw": (
        "repro.hw.perf:PerfCounters.charge",
        "repro.hw.perf:PerfCounters.charge_batch",
        "repro.hw.ept:EPTPList.set",
        "repro.hw.ept:EPTPList.get",
        "repro.hw.ept:EPT.map",
        "repro.hw.ept:EPT.translate",
        "repro.hw.paging:PageTable.map",
        "repro.hw.paging:PageTable.translate",
        "repro.hw.mem:HostMemory.allocate",
        "repro.hw.cpu:CPU.charge",
        "repro.hw.cpu:CPU.work",
        "repro.hw.cpu:CPU.syscall_trap",
        "repro.hw.cpu:CPU.sysret",
        "repro.hw.cpu:CPU.write_cr3",
        "repro.hw.cpu:CPU.context_switch",
        "repro.hw.cpu:CPU.deliver_irq",
        "repro.hw.cpu:CPU.vmexit",
        "repro.hw.cpu:CPU.vmentry",
        "repro.hw.cpu:CPU.vmfunc",
        "repro.hw.cpu:CPU.manage_wtc",
        "repro.hw.cpu:CPU.translate",
        "repro.hw.cpu:CPU.read_virt",
        "repro.hw.cpu:CPU.write_virt",
    ),
    "fleet": (
        "repro.fleet.traffic:tenant_plan",
        "repro.fleet.scheduler:calibrate_costs",
        "repro.fleet.scheduler:build_fleet",
        "repro.fleet.scheduler:FleetScheduler.run",
        "repro.fleet.scheduler:FleetMachine.revoke_and_recreate",
    ),
    "xray": (
        "repro.xray.trace:XrayRecorder.begin",
        "repro.xray.trace:XrayRecorder.commit",
        "repro.xray.trace:XrayRecorder.hv_blame",
        "repro.xray.trace:XrayRecorder.to_dict",
    ),
    "telemetry": (
        "repro.telemetry:TelemetrySession.on_*",
        "repro.telemetry:TelemetrySession.redirect_span",
    ),
    "audit": (
        "repro.audit.recorder:FlightRecorder.on_*",
    ),
    "observatory": (
        "repro.observatory:Observatory.adopt",
        "repro.observatory:Observatory.on_*",
    ),
}

#: Raw spans kept in memory; aggregates stay exact past the cap.
SPAN_CAP = 200_000


def resolve(target: str) -> List[Tuple[Any, str, Any]]:
    """``module:qualname`` -> ``[(owner, attribute, original)]``."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if "*" not in attr:
        return [(owner, attr, vars(owner)[attr])]
    return [(owner, name, value) for name, value in sorted(vars(owner).items())
            if fnmatch.fnmatchcase(name, attr) and callable(value)]


class Tracer:
    """Span stack, per-entry-point aggregates and capped raw spans."""

    def __init__(self, cap: int = SPAN_CAP) -> None:
        self.cap = cap
        self.names: List[str] = []
        self.layers: List[str] = []
        #: Per entry point: [calls, total_ns, self_ns, index].
        self.stats: List[list] = []
        #: Raw spans: (entry index, start_ns, end_ns, seq, parent seq, id).
        self.spans: List[tuple] = []
        self.dropped = 0
        #: Id of the round, cell or call in progress (set by the harness).
        self.op: Any = None
        #: Open spans, innermost last: [seq, child_ns].
        self._stack: List[list] = []
        self._seq = itertools.count()
        self._harness: Dict[Tuple[str, str], list] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- aggregation ---------------------------------------------------

    def entry(self, name: str, layer: str) -> list:
        """Register an entry point; returns its aggregate record."""
        stat = [0, 0, 0, len(self.names)]
        self.names.append(name)
        self.layers.append(layer)
        self.stats.append(stat)
        return stat

    def _close(self, stat: list, frame: list, start: int, end: int) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        parent = -1
        if stack:
            top = stack[-1]
            top[1] += duration
            parent = top[0]
        if len(self.spans) < self.cap:
            self.spans.append((stat[3], start, end, frame[0], parent, self.op))
        else:
            self.dropped += 1

    def reset(self) -> None:
        """Zero the aggregates and drop raw spans (open spans stay)."""
        for stat in self.stats:
            stat[0] = stat[1] = stat[2] = 0
        self.spans = []
        self.dropped = 0

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench") -> Iterator[None]:
        """A harness span (round or cell) around benchmark code."""
        stat = self._harness.get((name, layer))
        if stat is None:
            stat = self._harness[(name, layer)] = self.entry(name, layer)
        frame = [next(self._seq), 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(stat, frame, start, time.perf_counter_ns())

    # -- wrapping ------------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A timing wrapper around ``fn`` recorded as entry ``name``.
        Kept to two clock reads and one call so the wrapped hot leaves
        (``EPTPList.set``, ``PerfCounters.charge``) stay cheap."""
        stat = self.entry(name, layer)
        stack = self._stack
        seq = self._seq
        close = self._close
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [next(seq), 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(stat, frame, start, clock())

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, entry_points: Optional[Dict[str, Tuple[str, ...]]]
                = None) -> None:
        """Wrap every entry point.  Call before any machine is built:
        objects that cache bound methods at construction would keep the
        unwrapped ones."""
        table = ENTRY_POINTS if entry_points is None else entry_points
        for layer, targets in table.items():
            for target in targets:
                for owner, attr, original in resolve(target):
                    self._patch(owner, attr, original, layer)

    def _patch(self, owner: Any, attr: str, original: Any,
               layer: str) -> None:
        label = f"{owner.__name__.rpartition('.')[2]}.{attr}"
        if isinstance(owner, type):
            fn = original
            if isinstance(original, (staticmethod, classmethod)):
                fn = original.__func__
            wrapped: Any = self.wrap(fn, label, layer)
            if isinstance(original, staticmethod):
                wrapped = staticmethod(wrapped)
            elif isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # A module function: rebind it in every loaded module that
        # imported it by name, so ``from m import f`` callers see it too.
        wrapped = self.wrap(original, label, layer)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def track(self, cls: type, into: List[Any]) -> None:
        """Append every ``cls`` instance constructed from now on to
        ``into`` (no span: construction stays attributed to the caller)."""
        original = vars(cls)["__init__"]

        def tracking_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            into.append(obj)

        self.patch(cls, "__init__", tracking_init)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def by_name(self) -> Dict[str, Dict[str, int]]:
        """``{entry name: {calls, total_ns, self_ns}}``."""
        return {name: {"calls": stat[0], "total_ns": stat[1],
                       "self_ns": stat[2]}
                for name, stat in zip(self.names, self.stats)}

    def layer_calls(self, layer: str) -> int:
        """Calls into every entry point of ``layer``."""
        return sum(stat[0] for known, stat in zip(self.layers, self.stats)
                   if known == layer)

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer, including the harness's ``bench`` layer."""
        out: Dict[str, int] = {}
        for layer, stat in zip(self.layers, self.stats):
            out[layer] = out.get(layer, 0) + stat[2]
        return out

    def chrome_trace(self) -> Dict[str, Any]:
        """The raw spans as Chrome-trace (Perfetto) JSON, in µs."""
        origin = min((span[1] for span in self.spans), default=0)
        events = [{
            "name": self.names[index], "cat": self.layers[index], "ph": "X",
            "ts": (start - origin) / 1000.0, "dur": (end - start) / 1000.0,
            "pid": 1, "tid": 1,
            "args": {"seq": seq, "parent": parent, "id": op},
        } for index, start, end, seq, parent, op in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ns",
                "otherData": {"spans_kept": len(self.spans),
                              "spans_dropped": self.dropped}}
