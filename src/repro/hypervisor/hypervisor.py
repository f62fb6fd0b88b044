"""The hypervisor (KVM-like host kernel).

Owns VM lifecycle, orchestrates VM entries/exits, dispatches hypercalls,
owns the one EPTP directory every VMCS shares (Section 4.3 stores each
VM's EPT pointer in every VM's EPTP list at the offset equal to its VM
ID, so those lists would be identical; guests only select slots, so one
copy is equivalent and VM creation is one write, not n), runs the
world-registration service, and hosts ring-3 host processes (the "Host
User" world of Figure 1).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import faults as _faults
from repro import observe
from repro.core import convention
from repro.errors import ConfigurationError, GuestOSError, SimulationError
from repro.guestos.process import Process
from repro.hw.cpu import CPU, Mode, Ring
from repro.hw.ept import EPTPList
from repro.hw.mem import PAGE_SIZE, Frame
from repro.hw.paging import PageTable
from repro.hw.vmx import ExitReason
from repro.hw.world_table import WorldTableEntry
from repro.hypervisor.hypercalls import Hypercall, HypercallTable
from repro.hypervisor.injection import Injector
from repro.hypervisor.paths import (CALLEE, COPY, EXIT, INJECT, LAUNCH, RUN,
                                    SCHEDULE, SLEEP, SYSRET, TRAP_AND_INJECT,
                                    TRAP_IF_USER, WAKE, Step, TrapPath)
from repro.hypervisor.scheduler import HostScheduler
from repro.hypervisor.shared_memory import SharedMemoryRegion
from repro.hypervisor.vm import COMMON_GPA_BASE, VirtualMachine
from repro.hypervisor.worlds import WorldService

#: No outcome: the body raised something other than a guest error.
_NO_OUTCOME = object()


class HostProcess:
    """A ring-3 process running in VMX root mode (host userland)."""

    def __init__(self, name: str, page_table: PageTable) -> None:
        self.name = name
        self.page_table = page_table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HostProcess {self.name}>"


class Hypervisor:
    """The most privileged software layer of the machine."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.vms: Dict[str, VirtualMachine] = {}
        self._vms_by_id: Dict[int, VirtualMachine] = {}
        self._next_vm_id = 1
        self._next_common_gpa = COMMON_GPA_BASE
        #: The one EPTP list every VM's VMCS shares (Section 4.3).
        self.eptp_directory = EPTPList(machine.features.eptp_list_size)

        self.worlds = WorldService(machine.world_table)
        self.injector = Injector()
        self.scheduler = HostScheduler()
        self.host_processes: Dict[str, HostProcess] = {}
        self.hypercalls = HypercallTable()
        self._register_hypercalls()

        #: Armed world-call watchdogs: cpu_id -> (caller entry, budget).
        self.armed_timeouts: Dict[int, Tuple[WorldTableEntry, int]] = {}

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------

    def create_vm(self, name: str) -> VirtualMachine:
        """Create a VM; its EPT goes into the shared EPTP directory at
        the slot equal to its VM ID.  A rejected request changes nothing."""
        if name in self.vms:
            raise ConfigurationError(f"VM name {name!r} already in use")
        vm_id = self._next_vm_id
        directory = self.eptp_directory
        if vm_id >= directory.size:
            raise ConfigurationError("EPTP list exhausted; too many VMs")
        self._next_vm_id += 1
        vm = VirtualMachine(name, vm_id, self.machine.memory, directory)
        self.vms[name] = vm
        self._vms_by_id[vm_id] = vm
        directory.set(vm_id, vm.ept)
        return vm

    def vm_by_name(self, name: str) -> VirtualMachine:
        """Lookup a VM by name."""
        vm = self.vms.get(name)
        if vm is None:
            raise ConfigurationError(f"no VM named {name!r}")
        return vm

    def vm_by_id(self, vm_id: int) -> VirtualMachine:
        """Lookup a VM by ID."""
        vm = self._vms_by_id.get(vm_id)
        if vm is None:
            raise ConfigurationError(f"no VM with id {vm_id}")
        return vm

    def close(self) -> None:
        """Drop the machine, the VM tables (and each VM's kernel) and the
        hypercall handlers, bound methods of this hypervisor (see
        ``Machine.close``)."""
        self.machine = None
        for vm in self.vms.values():
            vm.kernel = None
        self.vms.clear()
        self._vms_by_id.clear()
        self.hypercalls.clear()

    def current_vm(self, cpu: CPU) -> VirtualMachine:
        """The VM the CPU is currently executing in."""
        if cpu.mode is not Mode.NON_ROOT:
            raise SimulationError("CPU is not in a guest")
        return self.vm_by_name(cpu.vm_name)

    # ------------------------------------------------------------------
    # VM entry / exit orchestration
    # ------------------------------------------------------------------

    def launch(self, cpu: CPU, vm: VirtualMachine, detail: str = "") -> None:
        """VM entry into ``vm`` (vmlaunch/vmresume)."""
        if not detail and cpu.trace.enabled:
            detail = f"enter {vm.name}"
        cpu.vmentry(vm.vmcs, detail)
        self.injector.deliver_pending(cpu, vm)

    def exit_to_host(self, cpu: CPU, reason: str, detail: str = "") -> None:
        """Force a VM exit and charge the hypervisor's handling cost."""
        cpu.vmexit(reason, detail)
        cpu.charge("vmexit_handle")

    def redirect(self, cpu: CPU, from_vm: VirtualMachine,
                 to_vm: VirtualMachine, body: Callable[[], Any],
                 path: TrapPath = TRAP_AND_INJECT, *,
                 executor: Optional[Process] = None,
                 request: Optional[bytes] = None,
                 run: Optional[Callable[[], Any]] = None) -> Any:
        """Walk ``path.enter``, run ``body`` in ``to_vm``, walk
        ``path.leave`` back to ``from_vm`` — also when ``body`` raises.

        ``TRAP_AND_INJECT`` serves the runtime's ``baseline`` mechanism,
        Table 7's "w/o CrossOver" redirector and the fault campaign's
        baseline cell; the case-study baselines, Overshadow, the split
        driver and crossvm pass their own.  Wake/sleep rows act on
        ``executor``, run rows call ``run``; copy rows copy ``request``,
        then the marshaled outcome: a ``GuestOSError`` is copied back
        before it is raised, any other exception leaves no reply.  A
        call that starts in the host kernel skips the leading exit and
        the trailing resume."""
        in_host = cpu.mode is Mode.ROOT
        self._walk(cpu, path.host_enter if in_host else path.enter,
                   from_vm, to_vm, executor, request, run)
        outcome: Any = _NO_OUTCOME
        try:
            outcome = body()
            return outcome
        except GuestOSError as err:
            outcome = err
            raise
        finally:
            reply = None
            if path.copies_reply and outcome is not _NO_OUTCOME:
                reply = convention.encode(outcome)
            self._walk(cpu, path.host_leave if in_host else path.leave,
                       from_vm, to_vm, executor, reply, run)

    def _walk(self, cpu: CPU, steps: Tuple[Step, ...],
              caller: VirtualMachine, callee: VirtualMachine,
              executor: Optional[Process], payload: Optional[bytes],
              run: Optional[Callable[[], Any]]) -> None:
        """Charge and perform one half of a trap round trip."""
        for op, arg, detail, _label, vector in steps:
            target = callee if arg == CALLEE else caller
            if op == EXIT:
                self.exit_to_host(cpu, arg, detail)
            elif op == LAUNCH:
                self.launch(cpu, target, detail)
            elif op == COPY:
                if payload is not None:
                    cpu.perf.charge(
                        "copy", self.machine.cost_model.copy(len(payload)))
            elif op == TRAP_IF_USER:
                if cpu.ring != 0:
                    cpu.syscall_trap(detail)
            elif op == WAKE:
                callee.kernel.scheduler.switch_to(executor, detail)
            elif op == SYSRET:
                cpu.sysret(detail)
            elif op == SLEEP:
                callee.kernel.current = None
            elif op == INJECT:
                self.injector.inject(cpu, target, vector, detail)
            elif op == SCHEDULE:
                self.scheduler.schedule(cpu, target, detail)
            elif op == RUN:
                run()
            else:
                cpu.charge(arg)

    # ------------------------------------------------------------------
    # hypercalls
    # ------------------------------------------------------------------

    def hypercall(self, cpu: CPU, number: int, *args, **kwargs):
        """Full vmcall round trip from guest CPL 0.

        Exits to the host, dispatches, re-enters the same guest, and
        returns the handler's result to the (guest) caller.
        """
        cpu.require_non_root("vmcall")
        cpu.require_ring(int(Ring.KERNEL), "vmcall")
        vm = self.current_vm(cpu)
        cpu.vmexit(ExitReason.VMCALL, f"hypercall {number:#x}")
        cpu.charge("vmexit_handle")
        cpu.charge("hypercall_dispatch")
        observers = observe.observers
        try:
            if _faults._engine is not None:
                _faults._engine.fire("hv.hypercall", hypervisor=self,
                                     cpu=cpu, vm=vm, number=number)
            result = self.hypercalls.dispatch(number, cpu, vm, *args,
                                              **kwargs)
        except GuestOSError:
            # The handler (or injected guard) rejected the request —
            # the "deny" half of the hypercall audit trail.
            if observers is not None:
                self._publish_hypercall(observers, number, vm, "deny")
            raise
        finally:
            cpu.vmentry(vm.vmcs, "resume")
        if observers is not None:
            self._publish_hypercall(observers, number, vm, "allow")
        return result

    @staticmethod
    def _publish_hypercall(observers, number: int, vm: VirtualMachine,
                           decision: str) -> None:
        observe.publish(observers, observe.Event(
            "hv", "hypercall", vm.name, "host", decision=decision,
            detail=f"number {number:#x}"))

    def _register_hypercalls(self) -> None:
        table = self.hypercalls
        table.register(Hypercall.QUERY_VMS, self._hc_query_vms)
        table.register(Hypercall.QUERY_SELF, self._hc_query_self)
        table.register(Hypercall.CREATE_WORLD, self._hc_create_world)
        table.register(Hypercall.DESTROY_WORLD, self._hc_destroy_world)
        table.register(Hypercall.SETUP_SHARED_MEM, self._hc_setup_shared_mem)
        table.register(Hypercall.SET_TIMEOUT, self._hc_set_timeout)
        table.register(Hypercall.CANCEL_TIMEOUT, self._hc_cancel_timeout)

    def _hc_query_vms(self, cpu: CPU, vm: VirtualMachine
                      ) -> List[Tuple[int, str]]:
        return [(v.vm_id, v.name) for v in self.vms.values()]

    def _hc_query_self(self, cpu: CPU, vm: VirtualMachine) -> int:
        return vm.vm_id

    def _hc_create_world(self, cpu: CPU, vm: VirtualMachine, *,
                         ring: int, page_table: PageTable, pc: int) -> int:
        entry = self.worlds.create_world(
            vm=vm, ring=ring, page_table=page_table, pc=pc)
        return entry.wid

    def _hc_destroy_world(self, cpu: CPU, vm: VirtualMachine,
                          wid: int) -> None:
        entry = self.machine.world_table.walk_by_wid(wid)
        if entry.owner_vm is not vm:
            raise GuestOSError(1, "cannot destroy another VM's world")
        self.worlds.destroy_world(wid, self.machine.cpus)

    def _hc_setup_shared_mem(self, cpu: CPU, vm: VirtualMachine,
                             peer_name: str, pages: int,
                             label: str = "shm") -> SharedMemoryRegion:
        peer = self.vm_by_name(peer_name)
        return self.create_shared_region([vm, peer], pages, label)

    def _hc_set_timeout(self, cpu: CPU, vm: VirtualMachine,
                        caller_entry: WorldTableEntry, budget: int) -> None:
        cpu.charge("timer_program", self.machine.cost_model.timer_program)
        self.armed_timeouts[cpu.cpu_id] = (caller_entry, budget)

    def _hc_cancel_timeout(self, cpu: CPU, vm: VirtualMachine) -> None:
        self.armed_timeouts.pop(cpu.cpu_id, None)

    # ------------------------------------------------------------------
    # shared memory & common GPAs
    # ------------------------------------------------------------------

    def alloc_common_gpa(self, pages: int = 1) -> int:
        """Reserve a GPA range usable at the same address in every VM."""
        gpa = self._next_common_gpa
        self._next_common_gpa += pages * PAGE_SIZE
        return gpa

    def create_shared_region(self, vms: List[VirtualMachine], pages: int,
                             label: str = "shm") -> SharedMemoryRegion:
        """Allocate host frames and map them at one common GPA in each VM."""
        gpa = self.alloc_common_gpa(pages)
        region = SharedMemoryRegion(self.machine.memory, gpa, pages, label)
        for vm in vms:
            region.map_into_vm(vm)
        return region

    # ------------------------------------------------------------------
    # host processes (host ring 3)
    # ------------------------------------------------------------------

    def create_host_process(self, name: str) -> HostProcess:
        """Create a host userland process with its own address space."""
        if name in self.host_processes:
            raise ConfigurationError(f"host process {name!r} already exists")
        table = PageTable(f"host:{name}")
        proc = HostProcess(name, table)
        self.host_processes[name] = proc
        return proc

    def map_into_host_process(self, proc: HostProcess, gva: int,
                              frame: Frame, *, writable: bool = True) -> None:
        """Map a host frame into a host process at ``gva``."""
        proc.page_table.map(gva, frame.hpa, writable=writable, user=True)

    def enter_host_user(self, cpu: CPU, proc: HostProcess) -> None:
        """Switch the CPU from host kernel to a host user process."""
        cpu.require_root("enter host user")
        cpu.require_ring(int(Ring.KERNEL), "enter host user")
        cpu.write_cr3(proc.page_table)
        cpu.vm_name = "host"
        cpu.iret_to_ring(3, f"enter {proc.name}")

    # ------------------------------------------------------------------
    # world-call watchdog (Section 3.4, callee DoS)
    # ------------------------------------------------------------------

    def fire_world_call_timeout(self, cpu: CPU) -> WorldTableEntry:
        """The armed watchdog fires: the hypervisor forcibly restores the
        caller's world so it can cancel the call.

        Returns the caller's world entry.  Charges the preemption-timer
        exit and the context restore.
        """
        armed = self.armed_timeouts.pop(cpu.cpu_id, None)
        if armed is None:
            raise SimulationError("timeout fired with no armed watchdog")
        caller_entry, _budget = armed
        # Preemption timer expiry: hardware exit + hypervisor handling.
        cpu.charge("vmexit", self.machine.cost_model.vmexit)
        cpu.charge("vmexit_handle")
        self.restore_world(cpu, caller_entry)
        return caller_entry

    def restore_world(self, cpu: CPU, entry: WorldTableEntry) -> None:
        """Privileged context restore to a registered world (used by the
        watchdog path; not the world-call datapath)."""
        cpu.mode = Mode.ROOT if entry.host_mode else Mode.NON_ROOT
        cpu.ring = entry.ring
        cpu.ept = entry.ept
        cpu.page_table = entry.page_table
        cpu.vm_name = entry.vm_name
        cpu.regs.write("rip", entry.pc)
        cpu.charge("vmentry", self.machine.cost_model.vmentry)
        cpu.trace.record("vmentry", "K(host)", cpu.world_label,
                         "timeout restore")
