"""VirtualMachine tests."""

import pytest

from repro.errors import SimulationError
from repro.hw.ept import EPTPList
from repro.hw.mem import HostMemory, PAGE_SIZE
from repro.hypervisor.vm import COMMON_GPA_BASE, VirtualMachine


@pytest.fixture
def vm():
    return VirtualMachine("vm1", 1, HostMemory(64 << 20), EPTPList())


class TestGuestMemory:
    def test_map_new_page(self, vm):
        gpa = vm.map_new_page("data")
        assert gpa < COMMON_GPA_BASE
        hpa = vm.ept.translate(gpa)
        assert vm.frame_at(gpa).hpa == hpa

    def test_gpa_zero_never_mapped(self, vm):
        assert vm.map_new_page() != 0

    def test_map_frame_at_common_gpa(self, vm):
        frame = vm.memory.allocate()
        vm.map_frame(COMMON_GPA_BASE, frame)
        assert vm.ept.translate(COMMON_GPA_BASE) == frame.hpa

    def test_map_frame_unaligned_rejected(self, vm):
        frame = vm.memory.allocate()
        with pytest.raises(SimulationError):
            vm.map_frame(COMMON_GPA_BASE + 3, frame)

    def test_unmap(self, vm):
        gpa = vm.map_new_page()
        vm.unmap_gpa(gpa)
        with pytest.raises(Exception):
            vm.ept.translate(gpa)
        with pytest.raises(SimulationError):
            vm.frame_at(gpa)

    def test_shared_frame_visible_via_both_vms(self):
        memory = HostMemory(64 << 20)
        directory = EPTPList()
        vm_a = VirtualMachine("a", 1, memory, directory)
        vm_b = VirtualMachine("b", 2, memory, directory)
        frame = memory.allocate()
        vm_a.map_frame(COMMON_GPA_BASE, frame)
        vm_b.map_frame(COMMON_GPA_BASE, frame)
        memory.write(vm_a.ept.translate(COMMON_GPA_BASE), b"shared!")
        assert memory.read(vm_b.ept.translate(COMMON_GPA_BASE), 7) == b"shared!"


class TestVirqQueue:
    def test_fifo(self, vm):
        vm.queue_virq(0x20, "a")
        vm.queue_virq(0x21, "b")
        assert vm.take_virq() == (0x20, "a")
        assert vm.take_virq() == (0x21, "b")
        assert vm.take_virq() is None

    def test_vmcs_attached(self, vm):
        assert vm.vmcs.vm_name == "vm1"
        assert vm.vmcs.guest.ept is vm.ept
        assert vm.vmcs.guest.eptp_list is vm.eptp_list
