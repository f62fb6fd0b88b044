"""Figure 5 — the extended-VMFUNC hardware datapath, inspected live.

The figure shows the CrossOver additions to a VT-x core: the
world-table MSR, the in-memory world table with its entry format
``{P, WID, H/G, Ring, EPTP, PTP, PC}``, and the per-core WT/IWT caches.
This module builds a machine, registers a few worlds, drives calls
through the datapath, and returns the structures the figure draws —
including live cache hit/miss statistics — for the ``crossover paper``
section to render.
"""

from __future__ import annotations

from contextlib import closing
from typing import Dict

from repro.guestos.kernel import KERNEL_TEXT_GVA
from repro.hw.costs import FEATURES_CROSSOVER
from repro.hw.paging import PageTable
from repro.machine import Machine


def run_figure5(worlds: int = 3, rounds: int = 4) -> Dict[str, object]:
    """Populate the datapath and return its visible state (the
    world-table entries as plain dicts)."""
    machine = Machine(features=FEATURES_CROSSOVER)
    with closing(machine):
        entries = []
        for i in range(worlds):
            vm = machine.hypervisor.create_vm(f"vm{i + 1}")
            pt = PageTable(f"vm{i + 1}-kern")
            gpa = vm.map_new_page("kernel-text")
            pt.map(KERNEL_TEXT_GVA, gpa, user=False, executable=True)
            entries.append(machine.hypervisor.worlds.create_world(
                vm=vm, ring=0, page_table=pt, pc=KERNEL_TEXT_GVA))
        machine.hypervisor.launch(machine.cpu,
                                  machine.hypervisor.vm_by_name("vm1"))
        machine.cpu.write_cr3(entries[0].page_table)
        svc = machine.hypervisor.worlds
        for _ in range(rounds):
            for entry in entries[1:] + entries[:1]:
                svc.world_call(machine.cpu, entry.wid)

        caches = machine.cpu.wt_caches
        assert caches is not None
        return {
            "entries": [{"present": e.present, "wid": e.wid,
                         "host_mode": e.host_mode, "ring": e.ring,
                         "eptp": e.eptp, "ptp": e.ptp, "pc": e.pc,
                         "world": e.vm_name} for e in entries],
            "wt_hits": caches.wt.hits, "wt_misses": caches.wt.misses,
            "iwt_hits": caches.iwt.hits, "iwt_misses": caches.iwt.misses,
            "misses_serviced": svc.misses_serviced,
            "cache_capacity": machine.features.wt_cache_entries,
        }
