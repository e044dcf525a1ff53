"""The clock (second-chance) replacement policy."""

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import PageId


@pytest.fixture
def disk() -> DiskManager:
    return DiskManager(page_size=256)


def fill_file(disk, pages: int) -> int:
    fid = disk.create_file()
    for _ in range(pages):
        disk.allocate_page(fid)
    return fid


class TestClockPolicy:
    def test_unknown_policy_rejected(self, disk):
        with pytest.raises(ValueError):
            BufferPool(disk, capacity=4, policy="fifo")

    def test_basic_hit_miss(self, disk):
        pool = BufferPool(disk, capacity=2, policy="clock")
        fid = fill_file(disk, 2)
        pool.fetch(PageId(fid, 0))
        pool.fetch(PageId(fid, 0))
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_second_chance_protects_referenced(self, disk):
        pool = BufferPool(disk, capacity=2, policy="clock")
        fid = fill_file(disk, 3)
        pool.fetch(PageId(fid, 0))
        pool.fetch(PageId(fid, 1))
        pool.fetch(PageId(fid, 0))  # re-reference page 0
        pool.fetch(PageId(fid, 2))  # sweep clears bits; victim is 0 or 1...
        assert len(pool) == 2
        assert pool.is_resident(PageId(fid, 2))

    def test_eviction_writes_dirty(self, disk):
        pool = BufferPool(disk, capacity=1, policy="clock")
        fid = fill_file(disk, 2)
        pool.fetch(PageId(fid, 0))
        pool.mark_dirty(PageId(fid, 0))
        pool.fetch(PageId(fid, 1))
        assert disk.writes == 1

    def test_capacity_never_exceeded(self, disk):
        pool = BufferPool(disk, capacity=4, policy="clock")
        fid = fill_file(disk, 40)
        for i in range(40):
            pool.fetch(PageId(fid, i % 17))
            assert len(pool) <= 4

    def test_clear_resets_ring(self, disk):
        pool = BufferPool(disk, capacity=2, policy="clock")
        fid = fill_file(disk, 4)
        for i in range(4):
            pool.fetch(PageId(fid, i))
        pool.clear()
        assert len(pool) == 0
        for i in range(4):
            pool.fetch(PageId(fid, i))
        assert len(pool) == 2

    def test_invalidate_file_with_clock(self, disk):
        pool = BufferPool(disk, capacity=4, policy="clock")
        fid = fill_file(disk, 3)
        other = fill_file(disk, 1)
        for i in range(3):
            pool.fetch(PageId(fid, i))
        pool.fetch(PageId(other, 0))
        pool.invalidate_file(fid)
        assert len(pool) == 1
        pool.fetch(PageId(fid, 0))  # still works after invalidation
        assert len(pool) == 2


class TestPolicyComparison:
    def test_scan_resistant_workloads_similar(self, disk):
        """Both policies behave sanely on a loop-touch pattern."""
        fid = fill_file(disk, 30)
        results = {}
        for policy in ("lru", "clock"):
            pool = BufferPool(disk, capacity=8, policy=policy)
            disk.reset_counters()
            for _ in range(3):
                for i in range(12):
                    pool.fetch(PageId(fid, i))
            results[policy] = disk.reads
        # A 12-page loop over an 8-frame pool misses a lot under both
        # policies; neither should be free, neither should exceed the
        # total accesses.
        for reads in results.values():
            assert 12 <= reads <= 36
