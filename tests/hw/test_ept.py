"""EPT and EPTP-list tests."""

import pytest

from repro.errors import EPTViolation, SimulationError
from repro.hw.ept import EPT, EPTPList
from repro.hw.mem import PAGE_SIZE

GPA = 0x10_0000
HPA = 0x55_0000


class TestEPT:
    def test_translate(self):
        ept = EPT("vm1")
        ept.map(GPA, HPA)
        assert ept.translate(GPA + 9) == HPA + 9

    def test_violation_not_present(self):
        ept = EPT()
        with pytest.raises(EPTViolation) as exc:
            ept.translate(GPA)
        assert exc.value.gpa == GPA
        assert exc.value.reason == "not-present"

    def test_violation_write_protected(self):
        ept = EPT()
        ept.map(GPA, HPA, writable=False)
        ept.translate(GPA)
        with pytest.raises(EPTViolation):
            ept.translate(GPA, write=True)

    def test_violation_exec_protected(self):
        ept = EPT()
        ept.map(GPA, HPA, executable=False)
        with pytest.raises(EPTViolation):
            ept.translate(GPA, execute=True)

    def test_unaligned_rejected(self):
        ept = EPT()
        with pytest.raises(SimulationError):
            ept.map(GPA + 8, HPA)

    def test_unmap(self):
        ept = EPT()
        ept.map(GPA, HPA)
        ept.unmap(GPA)
        with pytest.raises(EPTViolation):
            ept.translate(GPA)

    def test_eptp_tokens_unique(self):
        assert EPT().eptp != EPT().eptp

    def test_span(self):
        ept = EPT()
        ept.map(GPA, HPA)
        ept.map(GPA + PAGE_SIZE, HPA + 4 * PAGE_SIZE)
        pieces = list(ept.span(GPA + PAGE_SIZE - 2, 4))
        assert pieces == [(HPA + PAGE_SIZE - 2, 2), (HPA + 4 * PAGE_SIZE, 2)]

    def test_clone_mappings(self):
        src = EPT()
        src.map(GPA, HPA)
        dst = EPT()
        dst.clone_mappings(src)
        assert dst.translate(GPA) == HPA


class TestEPTPList:
    def test_set_get(self):
        lst = EPTPList(8)
        ept = EPT()
        lst.set(3, ept)
        assert lst.get(3) is ept
        assert lst.get(2) is None

    def test_out_of_range(self):
        lst = EPTPList(8)
        with pytest.raises(SimulationError):
            lst.get(8)
        with pytest.raises(SimulationError):
            lst.set(-1, EPT())

    def test_clear(self):
        lst = EPTPList(8)
        ept = EPT()
        lst.set(1, ept)
        lst.clear(1)
        assert lst.get(1) is None

    def test_architectural_size_default(self):
        assert EPTPList().size == 512

    def test_zero_size_rejected(self):
        with pytest.raises(SimulationError):
            EPTPList(0)
