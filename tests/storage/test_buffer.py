"""Buffer pool: LRU residency, dirty write-back, fault order, a model."""

import random

import pytest

from repro.errors import FaultInjected
from repro.fault import plan as fault
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import PageId


@pytest.fixture
def disk() -> DiskManager:
    return DiskManager(page_size=256)


def counts(hits, misses, evictions, dirty_evictions):
    """The dict ``BufferStats.as_dict`` returns for these counters."""
    return {
        "hits": hits,
        "misses": misses,
        "evictions": evictions,
        "dirty_evictions": dirty_evictions,
    }


def touched_last(pool):
    """The id of the page the pool touched last, or None."""
    page = pool.last.page
    return None if page is None else page.page_id


def fill_file(disk, pages: int) -> int:
    fid = disk.create_file()
    for _ in range(pages):
        disk.allocate_page(fid)
    return fid


class TestFetch:
    def test_miss_then_hit(self, disk):
        pool = BufferPool(disk, capacity=4)
        fid = fill_file(disk, 1)
        page = pool.fetch(PageId(fid, 0))
        assert disk.reads == 1
        pool.fetch(page.page_id)
        assert disk.reads == 1
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_lru_eviction_order(self, disk):
        pool = BufferPool(disk, capacity=2)
        fid = fill_file(disk, 3)
        pool.fetch(PageId(fid, 0))
        pool.fetch(PageId(fid, 1))
        pool.fetch(PageId(fid, 0))  # page 0 is now MRU
        pool.fetch(PageId(fid, 2))  # evicts page 1
        assert pool.is_resident(PageId(fid, 0))
        assert not pool.is_resident(PageId(fid, 1))
        assert pool.stats.evictions == 1

    def test_clean_eviction_writes_nothing(self, disk):
        pool = BufferPool(disk, capacity=1)
        fid = fill_file(disk, 2)
        pool.fetch(PageId(fid, 0))
        pool.fetch(PageId(fid, 1))
        assert disk.writes == 0

    def test_dirty_eviction_writes_back(self, disk):
        pool = BufferPool(disk, capacity=1)
        fid = fill_file(disk, 2)
        pool.fetch(PageId(fid, 0))
        pool.mark_dirty(PageId(fid, 0))
        pool.fetch(PageId(fid, 1))
        assert disk.writes == 1
        assert pool.stats.dirty_evictions == 1


class TestNewPage:
    def test_new_page_is_dirty_and_free(self, disk):
        fid = disk.create_file()
        pool = BufferPool(disk, capacity=2)
        page = pool.new_page(fid)
        assert disk.reads == 0
        assert pool.is_dirty(page.page_id)

    def test_new_page_written_on_eviction(self, disk):
        fid = disk.create_file()
        pool = BufferPool(disk, capacity=1)
        pool.new_page(fid)
        pool.new_page(fid)  # evicts the first, which is dirty
        assert disk.writes == 1


@pytest.fixture
def one_fault():
    """Install a plan that fires ``site`` at its first opportunity."""
    yield lambda site: fault.install(fault.FaultPlan([fault.FaultSpec(site)]))
    fault.clear()


@pytest.mark.parametrize("policy", ["lru", "clock"])
class TestFaultOrder:
    """A miss counts itself and the eviction, writes a dirty victim back,
    and only then reads; a fault at either I/O leaves the pool consistent."""

    def _dirty_victim(self, disk, policy):
        pool = BufferPool(disk, capacity=2, policy=policy)
        fid = fill_file(disk, 3)
        victim, other, incoming = (PageId(fid, i) for i in range(3))
        pool.fetch(victim)
        pool.mark_dirty(victim)
        pool.fetch(other)
        return pool, victim, other, incoming

    def test_write_back_fault_keeps_the_dirty_victim_first(
        self, disk, policy, one_fault
    ):
        pool, victim, other, incoming = self._dirty_victim(disk, policy)
        one_fault("disk.write")
        with pytest.raises(FaultInjected):
            pool.fetch(incoming)
        fault.clear()
        assert list(pool.resident_pages()) == [victim, other]
        assert pool.is_dirty(victim) and not pool.is_resident(incoming)
        assert pool.stats.as_dict() == counts(0, 3, 1, 1)
        assert (disk.reads, disk.writes) == (2, 0)
        pool.check_invariants()
        # The retry evicts the same victim, this time writing it back.
        pool.fetch(incoming)
        assert list(pool.resident_pages()) == [other, incoming]
        assert pool.stats.as_dict() == counts(0, 4, 2, 2)
        assert (disk.reads, disk.writes) == (3, 1)
        pool.check_invariants()

    def test_read_fault_after_eviction_drops_the_victim(
        self, disk, policy, one_fault
    ):
        pool, victim, other, incoming = self._dirty_victim(disk, policy)
        one_fault("disk.read")
        with pytest.raises(FaultInjected):
            pool.fetch(incoming)
        fault.clear()
        assert list(pool.resident_pages()) == [other]
        assert pool.stats.as_dict() == counts(0, 3, 1, 1)
        assert (disk.reads, disk.writes) == (2, 1)
        pool.check_invariants()
        pool.fetch(incoming)
        assert list(pool.resident_pages()) == [other, incoming]
        assert not pool.is_dirty(incoming)
        assert pool.stats.as_dict() == counts(0, 4, 1, 1)
        assert (disk.reads, disk.writes) == (3, 1)
        pool.check_invariants()

    @pytest.mark.parametrize("site", ["disk.write", "disk.read"])
    def test_a_failed_miss_forgets_the_page_touched_last(
        self, disk, policy, one_fault, site
    ):
        # Under clock the victim sweep clears ``other``'s reference bit
        # before the fault, so booking a re-touch of it as a pure hit
        # would no longer match a fetch.
        pool, victim, other, incoming = self._dirty_victim(disk, policy)
        assert touched_last(pool) == other
        one_fault(site)
        with pytest.raises(FaultInjected):
            pool.fetch(incoming)
        fault.clear()
        assert touched_last(pool) is None

    def test_a_failed_new_page_forgets_the_page_touched_last(
        self, disk, policy, one_fault
    ):
        pool, victim, other, incoming = self._dirty_victim(disk, policy)
        one_fault("disk.write")
        with pytest.raises(FaultInjected):
            pool.new_page(incoming.file_id)
        fault.clear()
        assert touched_last(pool) is None


def _pool_state(pool):
    return (
        list(pool._frames),
        [frame.dirty for frame in pool._frames.values()],
        dict(pool._referenced),
        list(pool._clock_ring),
        pool._clock_hand,
        pool.stats.as_dict(),
        pool.disk.reads,
        pool.disk.writes,
    )


@pytest.mark.parametrize("policy", ["lru", "clock"])
@pytest.mark.parametrize("seed", range(10))
def test_a_booked_retouch_equals_a_fetch(policy, seed):
    """The pool's one rule: booking a hit for a re-touch of the page
    touched last leaves the pool exactly as a real fetch does."""
    rng = random.Random(seed)
    pools = []
    for _ in range(2):
        disk = DiskManager(page_size=256)
        fid = fill_file(disk, 8)
        scratch = disk.create_file()
        pools.append(BufferPool(disk, capacity=3, policy=policy))
    booked = 0
    recent = PageId(fid, 0)
    for _ in range(400):
        op = rng.random()
        page_id = recent if rng.random() < 0.5 else PageId(fid, rng.randrange(8))
        flush = rng.random() < 0.5
        for literal, pool in enumerate(pools):
            if op < 0.6:  # a touch: booked on the first pool when granted
                if not literal and touched_last(pool) == page_id:
                    pool.stats.hits += 1
                    booked += 1
                else:
                    pool.fetch(page_id)
            elif op < 0.75:
                pool.writable(page_id)
                pool.mark_dirty(page_id)
            elif op < 0.85:
                pool.new_page(scratch)
            elif op < 0.9:
                pool.invalidate_page(page_id)
            elif op < 0.95:
                pool.flush_all()
            else:
                pool.clear(flush=flush)
        if op < 0.75:
            recent = page_id
        assert _pool_state(pools[0]) == _pool_state(pools[1])
        pools[0].check_invariants()
    assert booked > 50


# ----------------------------------------------------------------------
# the LRU pool against a list-based model
# ----------------------------------------------------------------------
class LruModel:
    """Residency as a list in LRU -> MRU order, dirty pages as a set."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []
        self.dirty = set()
        self.stats = [0, 0, 0, 0]  # hits, misses, evictions, dirty evictions
        self.io = []

    def _write(self, pid):
        self.dirty.discard(pid)
        self.io.append(("write", pid))

    def _make_room(self):
        if len(self.order) >= self.capacity:
            victim = self.order.pop(0)
            self.stats[2] += 1
            if victim in self.dirty:
                self.stats[3] += 1
                self._write(victim)

    def fetch(self, pid):
        if pid in self.order:
            self.stats[0] += 1
            self.order.remove(pid)
        else:
            self.stats[1] += 1
            self._make_room()
            self.io.append(("read", pid))
        self.order.append(pid)

    def new_page(self, pid):
        self._make_room()
        self.order.append(pid)
        self.dirty.add(pid)

    def drop(self, pids, flush=False):
        for pid in [p for p in self.order if p in pids]:
            if flush and pid in self.dirty:
                self._write(pid)
            self.order.remove(pid)
            self.dirty.discard(pid)

    def flush_all(self):
        for pid in [p for p in self.order if p in self.dirty]:
            self._write(pid)


def _random_step(rng, pool, model, disk, files):
    """Apply one random operation to both ``pool`` and ``model``."""
    op = rng.choice(
        ["fetch"] * 5 + ["writable"] * 3 + ["new_page", "invalidate_page",
         "invalidate_file", "flush_all", "clear"]
    )
    fid = rng.choice(files)
    pid = PageId(fid, rng.randrange(disk.num_pages(fid)))
    if op == "fetch":
        pool.fetch(pid)
        model.fetch(pid)
    elif op == "writable":
        pool.writable(pid)
        pool.mark_dirty(pid)
        model.fetch(pid)
        model.dirty.add(pid)
    elif op == "new_page":
        model.new_page(pool.new_page(fid).page_id)
    elif op == "invalidate_page":
        pool.invalidate_page(pid)
        model.drop({pid})
    elif op == "invalidate_file":
        flush = rng.random() < 0.5
        pool.invalidate_file(fid, flush=flush)
        model.drop({p for p in model.order if p.file_id == fid}, flush)
    elif op == "flush_all":
        pool.flush_all()
        model.flush_all()
    else:
        flush = rng.random() < 0.5
        pool.clear(flush=flush)
        if flush:
            model.flush_all()
        model.drop(set(model.order))


@pytest.mark.parametrize("capacity", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pool_matches_lru_model(capacity, seed):
    disk = DiskManager(page_size=128)
    files = [fill_file(disk, 4), fill_file(disk, 3)]
    events = []
    disk.io_hook = lambda kind, pid: events.append((kind, pid))
    pool = BufferPool(disk, capacity=capacity)
    model = LruModel(capacity)
    rng = random.Random(seed)
    for _ in range(300):
        _random_step(rng, pool, model, disk, files)
        assert pool.stats.as_dict() == counts(*model.stats)
        assert events == model.io
        assert (disk.reads, disk.writes) == (
            sum(kind == "read" for kind, _ in model.io),
            sum(kind == "write" for kind, _ in model.io),
        )
        assert list(pool._frames) == model.order
        assert {p for p in pool._frames if pool.is_dirty(p)} == model.dirty
        pool.check_invariants()


class TestMaintenance:
    def test_flush_all_clears_dirty(self, disk):
        pool = BufferPool(disk, capacity=4)
        fid = fill_file(disk, 2)
        pool.fetch(PageId(fid, 0))
        pool.mark_dirty(PageId(fid, 0))
        pool.flush_all()
        assert disk.writes == 1
        assert not pool.is_dirty(PageId(fid, 0))
        pool.flush_all()  # idempotent
        assert disk.writes == 1

    def test_invalidate_file_discards_dirty(self, disk):
        fid = disk.create_file()
        pool = BufferPool(disk, capacity=4)
        pool.new_page(fid)
        pool.invalidate_file(fid)
        assert disk.writes == 0
        assert len(pool) == 0

    def test_invalidate_file_with_flush(self, disk):
        fid = disk.create_file()
        pool = BufferPool(disk, capacity=4)
        pool.new_page(fid)
        pool.invalidate_file(fid, flush=True)
        assert disk.writes == 1

    def test_clear_flushes_by_default(self, disk):
        fid = disk.create_file()
        pool = BufferPool(disk, capacity=4)
        pool.new_page(fid)
        pool.clear()
        assert disk.writes == 1
        assert len(pool) == 0

    def test_mark_dirty_requires_residency(self, disk):
        pool = BufferPool(disk, capacity=2)
        fid = fill_file(disk, 1)
        with pytest.raises(KeyError):
            pool.mark_dirty(PageId(fid, 0))


class TestBufferStats:
    def test_as_dict_is_a_detached_copy(self, disk):
        pool = BufferPool(disk, capacity=2)
        fid = fill_file(disk, 1)
        snap = pool.stats.as_dict()
        pool.fetch(PageId(fid, 0))
        assert snap == counts(0, 0, 0, 0)  # the copy did not move
        assert pool.stats.misses == 1

    def test_zero_then_read_measures_one_interval(self, disk):
        pool = BufferPool(disk, capacity=2)
        fid = fill_file(disk, 3)
        pool.fetch(PageId(fid, 0))  # outside the interval
        pool.stats.reset()
        pool.fetch(PageId(fid, 0))  # hit
        pool.fetch(PageId(fid, 1))  # miss
        pool.fetch(PageId(fid, 2))  # miss + eviction
        assert pool.stats.as_dict() == counts(1, 2, 1, 0)
