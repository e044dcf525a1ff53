"""Cost meter: phase attribution."""

import pytest

from repro.core.measure import CHILD_PHASE, CostMeter, NullMeter, PARENT_PHASE
from repro.storage.disk import DiskManager


@pytest.fixture
def disk():
    return DiskManager(256)


def charge(disk, reads=0, writes=0):
    fid = disk.create_file()
    page = disk.allocate_page(fid)
    for _ in range(reads):
        disk.read_page(page.page_id)
    for _ in range(writes):
        disk.write_page(page)


class TestPhases:
    def test_attribution(self, disk):
        meter = CostMeter(disk)
        with meter.phase(PARENT_PHASE):
            charge(disk, reads=3)
        with meter.phase(CHILD_PHASE):
            charge(disk, reads=2, writes=1)
        assert meter.par_cost == 3
        assert meter.child_cost == 3
        assert meter.total_cost == 6
        assert meter.io(CHILD_PHASE).writes == 1

    def test_phases_accumulate(self, disk):
        meter = CostMeter(disk)
        for _ in range(3):
            with meter.phase("x"):
                charge(disk, reads=1)
        assert meter.cost("x") == 3

    def test_unentered_phase_is_zero(self, disk):
        meter = CostMeter(disk)
        assert meter.cost("never") == 0
        assert meter.update_cost == 0

    def test_nesting_rejected(self, disk):
        meter = CostMeter(disk)
        with pytest.raises(RuntimeError):
            with meter.phase("a"):
                with meter.phase("b"):
                    pass

    def test_phase_closed_after_exception(self, disk):
        meter = CostMeter(disk)
        with pytest.raises(ValueError):
            with meter.phase("a"):
                raise ValueError("boom")
        with meter.phase("b"):  # must not complain about an active phase
            pass

    def test_reset(self, disk):
        meter = CostMeter(disk)
        with meter.phase("x"):
            charge(disk, reads=1)
        meter.reset()
        assert meter.total_cost == 0


class TestNullMeter:
    def test_accepts_phases_without_effect(self):
        meter = NullMeter()
        with meter.phase("anything"):
            pass
        assert meter.total_cost == 0
