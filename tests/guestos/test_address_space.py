"""Address spaces built on first use.

``Kernel.spawn`` maps nothing: a process takes its pid and CR3 root at
spawn, and its page table (kernel half cloned from the master, private
text and stack pages) is built the first time anything reads
``Process.page_table``.  These tests pin what the built table holds,
where roots come from, and that a process which never runs costs no
frames and only a handful of objects.
"""

import gc

from repro.core.crossvm import CROSS_CODE_GVA, CrossVMSyscallMechanism
from repro.guestos.process import USER_STACK_GVA, USER_TEXT_GVA
from repro.hw.mem import mapping_epoch
from repro.testbed import build_two_vm_machine, enter_vm_kernel
from repro.workloads.utilities import prepare_inspection_environment

#: Tracked (cyclic-GC) objects a spawned process may cost before it is
#: used: the Process itself and its ``children`` and ``wids`` lists,
#: plus one of slack.  An eagerly built address space costs about 12.
DAEMON_OBJECT_BUDGET = 4


def _fields(table):
    """``{vpn: (writable, user, executable)}`` of a page table."""
    return {vpn: (pte.writable, pte.user, pte.executable)
            for vpn, pte in table.entries()}


def _eager_fields(kernel):
    """What the eager ``spawn`` mapped: the master's mappings as they
    stand, then read-only executable user text and a writable user
    stack."""
    expected = _fields(kernel.master_page_table)
    expected[USER_TEXT_GVA >> 12] = (False, True, True)
    expected[USER_STACK_GVA >> 12] = (True, True, False)
    return expected


class TestLazyBuild:
    def test_spawn_maps_nothing(self, single_vm):
        machine, vm, kernel = single_vm
        frames = machine.memory.allocated_frames
        epoch = mapping_epoch()
        proc = kernel.spawn("idle")
        assert proc.built_page_table() is None
        assert machine.memory.allocated_frames == frames
        assert mapping_epoch() == epoch

    def test_built_table_matches_eager_spawn(self, single_vm):
        machine, vm, kernel = single_vm
        proc = kernel.spawn("p")
        frames = machine.memory.allocated_frames
        epoch = mapping_epoch()
        table = proc.page_table
        assert proc.built_page_table() is table is proc.page_table
        assert _fields(table) == _eager_fields(kernel)
        # The kernel half is the master's own entries; the user pages
        # are two fresh frames, mapped in the VM's EPT.
        for vpn, pte in kernel.master_page_table.entries():
            assert table.entry(vpn << 12) is pte
        assert machine.memory.allocated_frames == frames + 2
        for gva in (USER_TEXT_GVA, USER_STACK_GVA):
            gpa = table.translate(gva)
            assert vm.ept.translate(gpa) == vm.frame_at(gpa).hpa
        assert vm.frame_at(table.translate(USER_TEXT_GVA)).label \
            == f"{vm.name}:pid{proc.pid}-text"
        # Building the table is a mapping change: the epoch moves then.
        assert mapping_epoch() > epoch

    def test_fd_table_built_on_first_use(self, single_vm):
        machine, vm, kernel = single_vm
        proc = kernel.spawn("p")
        assert "fds" not in vars(proc)
        kernel.reap(proc, 0)        # nothing to close, nothing built
        assert "fds" not in vars(proc)
        assert len(kernel.spawn("q").fds) == 0


class TestCrossRingPage:
    def test_spawned_before_setup_used_after(self, two_vms):
        """A table built after ``setup_pair`` inherits the cross-ring
        code page from the master clone."""
        machine, vm1, k1, vm2, k2 = two_vms
        late = k2.spawn("late")
        mech = CrossVMSyscallMechanism(machine)
        enter_vm_kernel(machine, vm1)
        mech.setup_pair(vm1, vm2)
        assert late.built_page_table() is None
        master_pte = k2.master_page_table.entry(CROSS_CODE_GVA)
        assert late.page_table.entry(CROSS_CODE_GVA) is master_pte
        assert late.page_table.translate(
            CROSS_CODE_GVA, user=False, execute=True) == master_pte.gpa
        assert _fields(late.page_table) == _eager_fields(k2)

    def test_built_before_setup_gets_page_mapped(self, two_vms):
        machine, vm1, k1, vm2, k2 = two_vms
        early = k2.spawn("early")
        table = early.page_table
        assert table.entry(CROSS_CODE_GVA) is None
        mech = CrossVMSyscallMechanism(machine)
        enter_vm_kernel(machine, vm1)
        mech.setup_pair(vm1, vm2)
        assert table.translate(CROSS_CODE_GVA, user=False, execute=True) \
            == k2.master_page_table.entry(CROSS_CODE_GVA).gpa

    def test_setup_builds_no_idle_table(self, two_vms):
        machine, vm1, k1, vm2, k2 = two_vms
        idle = [k2.spawn(f"idle-{i}") for i in range(5)]
        mech = CrossVMSyscallMechanism(machine)
        enter_vm_kernel(machine, vm1)
        mech.setup_pair(vm1, vm2)
        assert all(p.built_page_table() is None for p in idle)


class TestRoots:
    def test_roots_follow_spawn_order(self, single_vm):
        """CR3 roots are taken at spawn, whatever order the tables are
        built in."""
        machine, vm, kernel = single_vm
        procs = [kernel.spawn(f"p{i}") for i in range(4)]
        built_last_first = [p.page_table for p in reversed(procs)]
        roots = [table.root for table in reversed(built_last_first)]
        assert roots == sorted(roots)
        assert [b - a for a, b in zip(roots, roots[1:])] == [0x1000] * 3
        assert len({table.label for table in built_last_first}) == 4

    def test_cr3_loads_the_spawn_root(self, single_vm):
        machine, vm, kernel = single_vm
        proc = kernel.spawn("p")
        root = proc._root
        enter_vm_kernel(machine, vm)
        kernel.enter_user(proc)
        assert machine.cpu.cr3 == root


class TestInspectionEnvironment:
    SCALES = {"procs": 200, "utmp_entries": 10, "words_kib": 4,
              "bin_files": 5}

    def test_allocates_no_host_frames(self):
        machine, vm1, k1, vm2, k2 = build_two_vm_machine()
        frames = machine.memory.allocated_frames
        ept_entries = len(vm2.ept)
        prepare_inspection_environment(k2, self.SCALES)
        assert len(k2.processes) >= self.SCALES["procs"]
        assert machine.memory.allocated_frames == frames
        assert len(vm2.ept) == ept_entries

    def test_tracked_object_budget_per_daemon(self):
        machine, vm1, k1, vm2, k2 = build_two_vm_machine()
        count = 300
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            for i in range(count):
                k2.spawn(f"daemon-{i:04d}", parent=k2.init)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert added <= DAEMON_OBJECT_BUDGET * count, added / count
