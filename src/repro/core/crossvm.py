"""Cross-VM system calls over plain VMFUNC (Section 4.3, Figure 4).

This is the paper's *real-hardware approximation* of CrossOver: no
world table, no ``world_call`` — only Intel's shipping VMFUNC fn 0
(exit-free EPTP switching).  The software scaffolding makes up for the
missing hardware:

* a **read-only cross-ring code page** mapped at the same guest-physical
  address in every VM and into the kernel space of every process, so
  execution continues seamlessly across the EPT switch;
* a **helper context**: a page table whose CR3 *value* is identical in
  both VMs (VMFUNC does not switch CR3) mapping only common-GPA pages;
* a **transition IDT** (``IDT2``) installed, with interrupts disabled,
  around the switch so a stray interrupt cannot vector through the
  wrong VM's handlers;
* an **inter-VM shared user page** carrying the saved context, the
  calling information, and the returned buffer.

The sequence is exactly Figure 4's:

====  =================  =========================================
step  context            action
====  =================  =========================================
 1    VM1 app            system call (trap to the VM1 kernel)
 2    VM1 kernel         CR3 = helper; cli; IDT = IDT2
 3    VM1 helper         save context, write calling info, VMFUNC
 4    VM2 kernel         sti; dispatch + execute the system call
 5    VM2 kernel         write returned buffer; cli; VMFUNC
 6    VM1 helper         IDT = IDT1; sti; read result; CR3 = proc
 7    VM1 kernel         return to the app (sysret)
====  =================  =========================================
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Optional, Tuple

from repro import faults as _faults
from repro import observe
from repro import switchless as _switchless
from repro.core import convention
from repro.core.call import MECHANISMS
from repro.errors import (ConfigurationError, GuestOSError, SimulationError,
                          VMFuncFault)
from repro.guestos.kernel import Kernel
from repro.guestos.process import Process
from repro.hw.cpu import Mode, Ring, VMFUNC_EPT_SWITCH
from repro.hw.costs import Cost, CostModel
from repro.hw.idt import IDT
from repro.hw.mem import PAGE_SIZE
from repro.hw.paging import PageTable
from repro.hw.vmx import ExitReason
from repro.hypervisor.hypercalls import Hypercall
from repro.hypervisor.paths import CALLEE, CALLER, EXIT, LAUNCH, Step, TrapPath
from repro.hypervisor.vm import VirtualMachine
from repro.observe import Event

#: Where the cross-ring code page sits in every address space
#: (kernel-space: supervisor-only, read-only, executable).
CROSS_CODE_GVA = 0x7FF0_0000

#: Where the inter-VM shared user region sits in the helper context.
SHARED_GVA = 0x7FE0_0000

#: Pages in the inter-VM shared region (syscall results as large as a
#: directory listing or a 64 KiB read must fit).
SHARED_PAGES = 20

#: Size of the saved-context record the helper writes (regs + flags).
_CONTEXT_SAVE_BYTES = 160

#: Largest payload the shared region holds after the saved context and
#: the 4-byte length header.
_CAPACITY = SHARED_PAGES * PAGE_SIZE - _CONTEXT_SAVE_BYTES - 4

_RING_KERNEL = int(Ring.KERNEL)

#: Zero block written into the shared page as the saved context (the
#: content is always the same).
_CTX_ZEROS = b"\x00" * _CONTEXT_SAVE_BYTES

#: Sentinel: the mechanism seam declined and the default path should run.
_NOT_ROUTED = object()

#: No outcome: the remote body raised something other than a guest error.
_NO_OUTCOME = object()

#: The trap round trip of an explicit ``mechanism="baseline"`` call.
BASELINE_PATH = TrapPath(
    enter=(Step(EXIT, ExitReason.VMCALL, "crossvm baseline out"),
           Step(LAUNCH, CALLEE, "crossvm baseline entry")),
    leave=(Step(EXIT, ExitReason.VMCALL, "crossvm baseline done"),
           Step(LAUNCH, CALLER, "crossvm baseline resume")))

#: The trap round trip the dispatcher falls back to after a VMFUNC fault.
LEGACY_PATH = TrapPath(
    enter=(Step(EXIT, ExitReason.VMFUNC_FAULT, "crossvm legacy out"),
           Step(LAUNCH, CALLEE, "crossvm legacy entry")),
    leave=(Step(EXIT, ExitReason.VMCALL, "crossvm legacy done"),
           Step(LAUNCH, CALLER, "crossvm legacy resume")))


class _PairState:
    """Per-(VM, VM) plumbing created once at setup time."""

    def __init__(self, helper_pt: PageTable, idt2: IDT,
                 helpers: Dict[str, Process]) -> None:
        self.helper_pt = helper_pt
        self.idt2 = idt2
        self.helpers = helpers          # vm name -> helper process
        self.calls = 0
        #: Straight-line memos: whether the context-save block has been
        #: zeroed once, and each half's whole charge, copies included,
        #: as ``(cost, events, switch_cycles)`` (see :func:`_enter_charge`)
        #: — the enter half keyed by request length, the return half by
        #: ``(restore_idt, reply length)``.
        self.ctx_zeroed = False
        self.enter_charges: Dict[int, tuple] = {}
        self.return_charges: Dict[Tuple[bool, int], tuple] = {}


def _batch(cm: CostModel, kinds: Tuple[Tuple[str, int], ...],
           *copies: int) -> tuple:
    """One ``(cost, events)`` charge for
    :meth:`~repro.hw.perf.PerfCounters.charge_batch`: ``kinds`` pairs
    cost-model fields with how often each is charged, and ``copies``
    are the byte lengths of the copies charged alongside them."""
    cost = Cost()
    events: Dict[str, int] = {}
    for kind, count in kinds:
        cost = cost + getattr(cm, kind).scaled(count)
        events[kind] = count
    for length in copies:
        cost = cost + cm.copy(length)
    if copies:
        events["copy"] = len(copies)
    return cost, events


def _enter_charge(cm: CostModel, request_len: int) -> tuple:
    """Steps 2-4 of Figure 4: helper CR3, cli, IDT2, VMFUNC, sti, plus
    the save-area copy, the calling-info write and its read-back.

    Returns ``(cost, events, switch_cycles)``: the batch charge and the
    cycles of its part up to and including the VMFUNC, which the
    step-by-step path has charged when it publishes the switch (all but
    the ``sti`` and the read-back)."""
    cost, events = _batch(cm, (("cr3_write", 1), ("int_toggle", 2),
                               ("vmfunc_ept_switch", 1), ("idt_switch", 1)),
                          _CONTEXT_SAVE_BYTES, 4 + request_len, request_len)
    after = cm.int_toggle.cycles + cm.copy(request_len).cycles
    return cost, events, cost.cycles - after


def _enter_fault_charge(cm: CostModel, restore_idt: bool,
                        request_len: int) -> tuple:
    """What steps 2-3 and their unwind charge when the VMFUNC into the
    peer faults: helper CR3, cli, IDT2, the save-area and calling-info
    copies, then the IDT restore, sti and the original CR3."""
    return _batch(cm, (("cr3_write", 2), ("int_toggle", 2),
                       ("idt_switch", 2 if restore_idt else 1)),
                  _CONTEXT_SAVE_BYTES, 4 + request_len)


def _return_charge(cm: CostModel, restore_idt: bool,
                   *copies: int) -> tuple:
    """Steps 5-6 of Figure 4: cli, VMFUNC back, the IDT restore, sti and
    the original CR3, plus ``copies`` (the reply write and its
    read-back; none when the reply did not fit).

    Returns ``(cost, events, switch_cycles)`` like :func:`_enter_charge`;
    up to the switch the step-by-step path has charged the reply write,
    the ``cli`` and the VMFUNC."""
    kinds: Tuple[Tuple[str, int], ...] = (
        ("int_toggle", 2), ("vmfunc_ept_switch", 1), ("cr3_write", 1))
    if restore_idt:
        kinds += (("idt_switch", 1),)
    cost, events = _batch(cm, kinds, *copies)
    switch = cm.int_toggle.cycles + cm.vmfunc_ept_switch.cycles
    if copies:
        switch += cm.copy(copies[0]).cycles
    return cost, events, switch


class CrossVMSyscallMechanism:
    """The Section 4.3 cross-VM syscall machinery."""

    def __init__(self, machine) -> None:
        self.machine = machine
        if not machine.features.vmfunc:
            raise ConfigurationError(
                "cross-VM syscalls via VMFUNC need VMFUNC hardware")
        self._pairs: Dict[Tuple[str, str], _PairState] = {}
        #: Fall back to the trap-based round trip when VMFUNC faults.
        self.recovery_legacy = True
        #: Recovery-policy activations (mirrors WorldCallRuntime).
        self.recoveries: Counter = Counter()
        #: Round trips served over an explicit ``mechanism="baseline"``.
        self.baseline_calls = 0

    # ------------------------------------------------------------------
    # one-time setup
    # ------------------------------------------------------------------

    def setup_pair(self, vm_a: VirtualMachine, vm_b: VirtualMachine
                   ) -> _PairState:
        """Prepare the helper context, code page, IDT2 and shared page
        for a VM pair (idempotent)."""
        known = self._pairs.get((vm_a.name, vm_b.name))
        if known is not None:
            return known
        if vm_a.kernel is None or vm_b.kernel is None:
            raise ConfigurationError("both VMs need booted kernels")

        cpu = self.machine.cpu
        hypervisor = self.machine.hypervisor
        # Applications discover VM IDs through a hypercall (Section 4.3).
        if cpu.mode is Mode.NON_ROOT and cpu.ring == int(Ring.KERNEL):
            hypervisor.hypercall(cpu, Hypercall.QUERY_VMS)

        # Cross-ring code page: one host frame at a common GPA, mapped
        # into both VMs and into kernel space of every address space.
        # The kernel half is shared the way x86-64 shares it: the page
        # goes into the master table and every table already built; a
        # process that builds its table later inherits it from the
        # master clone.
        code_gpa = hypervisor.alloc_common_gpa(1)
        code_frame = self.machine.memory.allocate("cross-ring-code")
        shm_gpa = hypervisor.alloc_common_gpa(SHARED_PAGES)
        shm_frames = [self.machine.memory.allocate(f"crossvm-shared[{i}]")
                      for i in range(SHARED_PAGES)]
        for vm in (vm_a, vm_b):
            vm.map_frame(code_gpa, code_frame, writable=False)
            for i, frame in enumerate(shm_frames):
                vm.map_frame(shm_gpa + i * PAGE_SIZE, frame, writable=True)
            kernel = vm.kernel
            assert isinstance(kernel, Kernel)
            self._map_cross_page(kernel.master_page_table, code_gpa)
            for proc in kernel.processes.values():
                table = proc.built_page_table()
                if table is not None:
                    self._map_cross_page(table, code_gpa)

        # Helper context: ONE page table object => literally the same
        # CR3 value on both sides of the switch.
        helper_pt = PageTable("crossvm-helper")
        helper_pt.map(CROSS_CODE_GVA, code_gpa, writable=False, user=False,
                      executable=True)
        for i in range(SHARED_PAGES):
            helper_pt.map(SHARED_GVA + i * PAGE_SIZE, shm_gpa + i * PAGE_SIZE,
                          writable=True, user=True)

        idt2 = IDT("crossvm-idt2")
        helpers = {
            vm_a.name: vm_a.kernel.spawn("crossvm-helper"),
            vm_b.name: vm_b.kernel.spawn("crossvm-helper"),
        }
        state = _PairState(helper_pt, idt2, helpers)
        # Keyed by both orders so a call finds its pair without sorting.
        self._pairs[(vm_a.name, vm_b.name)] = state
        self._pairs[(vm_b.name, vm_a.name)] = state
        return state

    def _map_cross_page(self, table: PageTable, code_gpa: int) -> None:
        if table.entry(CROSS_CODE_GVA) is None:
            table.map(CROSS_CODE_GVA, code_gpa, writable=False, user=False,
                      executable=True)

    @staticmethod
    def _require_pair(state: Optional[_PairState], from_vm: VirtualMachine,
                      to_vm: VirtualMachine) -> _PairState:
        if state is None:
            raise ConfigurationError(
                f"setup_pair({from_vm.name}, {to_vm.name}) was never run")
        return state

    @staticmethod
    def _check_fits(payload_len: int) -> None:
        if payload_len > _CAPACITY:
            raise SimulationError(
                f"cross-VM payload of {payload_len}B exceeds the shared "
                f"region capacity of {_CAPACITY}B")

    # ------------------------------------------------------------------
    # the redirected call
    # ------------------------------------------------------------------

    def call(self, from_vm: VirtualMachine, to_vm: VirtualMachine,
             name: str, *args, executor: Optional[Process] = None,
             mechanism: Optional[str] = None, **kwargs) -> Any:
        """Execute syscall ``name`` in ``to_vm``'s kernel.

        Must be invoked from ``from_vm``'s kernel at CPL 0 — i.e. from
        inside the syscall dispatcher (step 2 of Figure 4).  Remote
        errno failures are re-raised locally.

        ``mechanism`` selects the transport per site: the default
        VMFUNC round trip (``None``/``"world_call"``/``"vmfunc"``), the
        trap-based ``"baseline"``, or ``"switchless"`` (a worker in
        ``to_vm`` services the request over a shared-memory ring).
        With an installed :mod:`repro.switchless` engine and no
        explicit choice, the engine's policy decides.
        """

        state = self._pairs.get((from_vm.name, to_vm.name))

        def serve(payload):
            r_name, r_args, r_kwargs = payload
            remote_kernel = to_vm.kernel
            assert isinstance(remote_kernel, Kernel)
            runner = executor
            if runner is None:
                runner = self._require_pair(
                    state, from_vm, to_vm).helpers[to_vm.name]
            return remote_kernel.execute_syscall(
                runner, r_name, *r_args, **r_kwargs)

        routed = self._route(from_vm, to_vm, mechanism,
                             (name, args, kwargs), serve, "crossvm")
        if routed is not _NOT_ROUTED:
            return routed
        return self._roundtrip(state, from_vm, to_vm, (name, args, kwargs),
                               serve)

    def call_function(self, from_vm: VirtualMachine,
                      to_vm: VirtualMachine,
                      fn: Callable[[Any], Any], payload: Any = None, *,
                      mechanism: Optional[str] = None) -> Any:
        """Run an arbitrary kernel-side service in ``to_vm`` over the
        same Figure-4 transition sequence.

        Used by systems whose remote endpoint is not a syscall — e.g. a
        split-driver backend's transmit routine or Tahoma's browser-call
        dispatcher.  ``fn`` executes in ``to_vm``'s kernel context.
        ``mechanism`` works as in :meth:`call`.
        """
        routed = self._route(from_vm, to_vm, mechanism, payload, fn,
                             "crossvm_fn")
        if routed is not _NOT_ROUTED:
            return routed
        return self._roundtrip(self._pairs.get((from_vm.name, to_vm.name)),
                               from_vm, to_vm, payload, fn)

    def _route(self, from_vm: VirtualMachine, to_vm: VirtualMachine,
               mechanism: Optional[str], request_obj: Any,
               server: Callable[[Any], Any], kind: str) -> Any:
        """The mechanism seam shared by :meth:`call`/:meth:`call_function`.

        Returns :data:`_NOT_ROUTED` when the default VMFUNC path should
        run.  Zero cost when no engine is installed and no explicit
        mechanism was requested: one module-attribute read, two branches.
        """
        sl_engine = _switchless._engine
        if mechanism is None:
            if sl_engine is None:
                return _NOT_ROUTED
            mechanism = sl_engine.select(kind, from_vm.name, to_vm.name,
                                         self.machine.cpu.perf.cycles)
        if mechanism in (None, "world_call", "vmfunc"):
            return _NOT_ROUTED
        if mechanism == "switchless":
            if sl_engine is None:
                raise ConfigurationError(
                    "mechanism='switchless' needs an installed engine; "
                    "run under repro.switchless.scoped(SwitchlessEngine())")
            return sl_engine.crossvm_call(self, from_vm, to_vm,
                                          request_obj, server)
        if mechanism == "baseline":
            return self._baseline_roundtrip(from_vm, to_vm, request_obj,
                                            server)
        raise ConfigurationError(
            f"unknown call mechanism {mechanism!r}; expected one of "
            f"{MECHANISMS} ('vmfunc' is an alias of 'world_call')")

    def _roundtrip(self, state: Optional[_PairState],
                   from_vm: VirtualMachine, to_vm: VirtualMachine,
                   request_obj: Any, server: Callable[[Any], Any]) -> Any:
        observers = observe.observers
        if observers is None:
            return self._roundtrip_impl(state, from_vm, to_vm, request_obj,
                                        server)
        # One bracket per Figure-4 round trip, traced or not.
        cpu = self.machine.cpu
        observe.publish(observers, Event(
            "core", "crossvm_begin", from_vm.name, to_vm.name,
            cycles=cpu.perf.cycles, ref=cpu))
        outcome = "ok"
        try:
            return self._roundtrip_impl(state, from_vm, to_vm, request_obj,
                                        server)
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            observe.publish(observers, Event(
                "core", "crossvm_end", from_vm.name, to_vm.name,
                detail=outcome, cycles=cpu.perf.cycles, ref=cpu))

    def _roundtrip_impl(self, state: Optional[_PairState],
                        from_vm: VirtualMachine, to_vm: VirtualMachine,
                        request_obj: Any,
                        server: Callable[[Any], Any]) -> Any:
        state = self._require_pair(state, from_vm, to_vm)
        cpu = self.machine.cpu
        if cpu.mode is not Mode.NON_ROOT or cpu.vm_name != from_vm.name:
            raise SimulationError(
                f"cross-VM call must start in {from_vm.name}'s kernel, "
                f"CPU is in {cpu.world_label}")
        cpu.require_ring(_RING_KERNEL, "cross-VM call")
        memory = self.machine.memory

        saved_pt = cpu.page_table
        saved_idt = cpu.interrupts.idt

        # The request is marshaled and sized before step 2: one too
        # large for the shared page fails here, in from_vm's own
        # context, having charged nothing in either tier.
        request, decoded = convention.roundtrip(request_obj)
        self._check_fits(len(request))

        # A trace records every step, and a fault engine must be able
        # to fault any step, so either takes the step-by-step path; the
        # straight-line halves run otherwise.
        if not cpu.trace.enabled and _faults._engine is None:
            return self._roundtrip_straight(state, from_vm, to_vm,
                                            request_obj, request, decoded,
                                            server, saved_pt, saved_idt)

        # Step 2: enter the helper context.
        cpu.write_cr3(state.helper_pt)
        cpu.cli()
        cpu.install_idt(state.idt2)

        # Step 3: save context + calling info in the shared user page.
        cpu.write_virt(memory, SHARED_GVA, b"\x00" * _CONTEXT_SAVE_BYTES)
        cpu.write_virt(memory, SHARED_GVA + _CONTEXT_SAVE_BYTES,
                       len(request).to_bytes(4, "big") + request)
        try:
            cpu.vmfunc(VMFUNC_EPT_SWITCH, to_vm.vm_id)
        except VMFuncFault:
            # Unwind the helper context (we never left from_vm), then
            # degrade to the trap-based hypervisor-mediated round trip.
            if saved_idt is not None:
                cpu.install_idt(saved_idt)
            cpu.sti()
            assert saved_pt is not None
            cpu.write_cr3(saved_pt)
            if not self.recovery_legacy:
                raise
            return self._legacy_roundtrip(from_vm, to_vm, request_obj,
                                          server)

        # Step 4: we are now executing in to_vm's kernel context.
        cpu.sti()
        header = cpu.read_virt(memory, SHARED_GVA + _CONTEXT_SAVE_BYTES, 4,
                               charge=False)
        body = cpu.read_virt(memory, SHARED_GVA + _CONTEXT_SAVE_BYTES + 4,
                             int.from_bytes(header, "big"))
        outcome: Any = _NO_OUTCOME
        try:
            outcome = server(convention.decode(body))
        except GuestOSError as err:
            outcome = err
        finally:
            # Step 5: returned buffer into the shared page, switch back.
            # A reply too large for the shared page is never written, nor
            # is one the body never produced (it raised something other
            # than a guest error); the round trip still unwinds through
            # steps 5-6 and then fails, so the CPU is back in from_vm's
            # own context.
            reply = (b"" if outcome is _NO_OUTCOME
                     else convention.encode(outcome))
            fits = outcome is not _NO_OUTCOME and len(reply) <= _CAPACITY
            if fits:
                cpu.write_virt(memory, SHARED_GVA + _CONTEXT_SAVE_BYTES,
                               len(reply).to_bytes(4, "big") + reply)
            cpu.cli()
            cpu.vmfunc(VMFUNC_EPT_SWITCH, from_vm.vm_id)

            # Step 6: restore the original VM1 kernel context.
            if saved_idt is not None:
                cpu.install_idt(saved_idt)
            cpu.sti()
            if fits:
                header = cpu.read_virt(
                    memory, SHARED_GVA + _CONTEXT_SAVE_BYTES, 4,
                    charge=False)
                reply = cpu.read_virt(memory,
                                      SHARED_GVA + _CONTEXT_SAVE_BYTES + 4,
                                      int.from_bytes(header, "big"))
            assert saved_pt is not None
            cpu.write_cr3(saved_pt)
        self._check_fits(len(reply))
        state.calls += 1

        result = convention.decode(reply)
        if isinstance(result, GuestOSError):
            raise result
        return result

    def _baseline_roundtrip(self, from_vm: VirtualMachine,
                            to_vm: VirtualMachine, request_obj: Any,
                            server: Callable[[Any], Any]) -> Any:
        """An explicitly requested ``mechanism="baseline"`` round trip:
        the hypervisor walks :data:`BASELINE_PATH` around the service.

        Same transitions as the legacy fallback, but deliberate — no
        recovery accounting."""
        try:
            return self.machine.hypervisor.redirect(
                self.machine.cpu, from_vm, to_vm,
                lambda: server(request_obj), BASELINE_PATH)
        finally:
            self.baseline_calls += 1

    def _legacy_roundtrip(self, from_vm: VirtualMachine,
                          to_vm: VirtualMachine, request_obj: Any,
                          server: Callable[[Any], Any]) -> Any:
        """The pre-VMFUNC fallback: the hypervisor walks
        :data:`LEGACY_PATH` around the service.

        When the exit-free EPTP switch is unavailable (VMFUNC faulted),
        the dispatcher falls back to what baseline systems do.  Two full
        world switches instead of zero, but the call still completes.
        """
        try:
            return self.machine.hypervisor.redirect(
                self.machine.cpu, from_vm, to_vm,
                lambda: server(request_obj), LEGACY_PATH)
        finally:
            self.recoveries["legacy_roundtrip"] += 1
            observe.emit("core", "recovery", detail="crossvm_legacy")

    def _roundtrip_straight(self, state: _PairState,
                            from_vm: VirtualMachine, to_vm: VirtualMachine,
                            request_obj: Any, request: bytes, decoded: Any,
                            server: Callable[[Any], Any],
                            saved_pt: PageTable,
                            saved_idt: Optional[IDT]) -> Any:
        """The Figure-4 sequence as two straight-line halves.

        Performs the same state changes as the step-by-step path, but
        each half stores CR3, the IDT and IF directly, checks the ring
        once (on entry, by the caller, and again after the callee
        returns, where the return half's ``cli`` would fault) and
        applies one charge looked up in the pair's per-length memo —
        counters come out bit-identical to the step-by-step path.  Each
        ``ept_switch`` event is published before its half's charge, with
        the memo's cost up to the switch added, so its ``cycles`` match
        the step-by-step path's too.

        Two further model-equivalences trim pure overhead: the shared
        frames hand back exactly the bytes just written through the
        peer mapping, so neither side re-reads or re-decodes them — the
        server gets the request's round-trip copy ``decoded`` and the
        caller the reply's (lengths, and therefore copy charges, are
        identical) — and the zeroed context-save block is only written
        on a pair's first call (nothing else ever touches those
        bytes).
        """
        cpu = self.machine.cpu
        memory = self.machine.memory
        cm = cpu.cost_model
        perf = cpu.perf
        interrupts = cpu.interrupts
        tlb = cpu.tlb

        # Steps 2-3: helper context, save area, calling info, switch.
        helper_pt = state.helper_pt
        cpu.page_table = helper_pt
        tlb.on_cr3_write(helper_pt.root)
        interrupts.interrupts_enabled = False
        interrupts.idt = state.idt2
        if not state.ctx_zeroed:
            cpu.write_virt(memory, SHARED_GVA, _CTX_ZEROS, charge=False)
            state.ctx_zeroed = True
        request_len = len(request)
        cpu.write_virt(memory, SHARED_GVA + _CONTEXT_SAVE_BYTES,
                       request_len.to_bytes(4, "big") + request,
                       charge=False)
        charge = state.enter_charges.get(request_len)
        if charge is None:
            charge = state.enter_charges[request_len] = _enter_charge(
                cm, request_len)
        restore_idt = saved_idt is not None
        try:
            cpu.ept_switch(to_vm.vm_id, pending=charge[2])
        except VMFuncFault:
            # As in the step-by-step path: unwind the helper context
            # (we never left from_vm), charge what it charged, and
            # degrade to the trap-based round trip.
            if restore_idt:
                interrupts.idt = saved_idt
            interrupts.interrupts_enabled = True
            cpu.page_table = saved_pt
            tlb.on_cr3_write(saved_pt.root)
            perf.charge_batch(*_enter_fault_charge(cm, restore_idt,
                                                   request_len))
            if not self.recovery_legacy:
                raise
            return self._legacy_roundtrip(from_vm, to_vm, request_obj,
                                          server)

        # Step 4: in to_vm's kernel context.  The calling info in the
        # shared page is byte-for-byte the buffer written above.
        interrupts.interrupts_enabled = True
        perf.charge_batch(charge[0], charge[1])
        outcome: Any = _NO_OUTCOME
        try:
            outcome = server(decoded)
        except GuestOSError as err:
            outcome = err
        finally:
            # Steps 5-6: returned buffer, switch back, restore VM1
            # context.  An oversized reply, or none, unwinds the same way
            # before failing; so does a written one the caller cannot
            # decode (a non-finite float): its error is the result.
            try:
                reply, result = ((b"", None) if outcome is _NO_OUTCOME
                                 else convention.roundtrip(outcome))
            except SimulationError as err:
                reply, result = convention.encode(outcome), err
            reply_len = len(reply)
            if outcome is not _NO_OUTCOME and reply_len <= _CAPACITY:
                cpu.write_virt(memory, SHARED_GVA + _CONTEXT_SAVE_BYTES,
                               reply_len.to_bytes(4, "big") + reply,
                               charge=False)
                key = (restore_idt, reply_len)
                charge = state.return_charges.get(key)
                if charge is None:
                    charge = state.return_charges[key] = _return_charge(
                        cm, restore_idt, 4 + reply_len, reply_len)
            else:
                charge = _return_charge(cm, restore_idt)
            if cpu.ring != _RING_KERNEL:
                cpu.require_ring(_RING_KERNEL, "cli")
            interrupts.interrupts_enabled = False
            cpu.ept_switch(from_vm.vm_id, pending=charge[2])
            if restore_idt:
                interrupts.idt = saved_idt
            interrupts.interrupts_enabled = True
            cpu.page_table = saved_pt
            tlb.on_cr3_write(saved_pt.root)
            perf.charge_batch(charge[0], charge[1])
        self._check_fits(reply_len)
        state.calls += 1

        if isinstance(result, (GuestOSError, SimulationError)):
            raise result
        return result
