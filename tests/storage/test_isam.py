"""ISAM indexes: static build and probes."""

import copy
import random

import pytest

from repro.errors import KeyNotFoundError, StorageError
from repro.storage.isam import IsamIndex


@pytest.fixture
def index(catalog):
    isam = IsamIndex(catalog.pool, "idx")
    isam.build([(k, k * 100) for k in range(0, 2000, 2)])
    return isam


class TestBuild:
    def test_requires_strictly_sorted(self, catalog):
        isam = IsamIndex(catalog.pool)
        with pytest.raises(StorageError):
            isam.build([(2, 0), (1, 0)])
        isam2 = IsamIndex(catalog.pool, "dup")
        with pytest.raises(StorageError):
            isam2.build([(1, 0), (1, 1)])

    def test_double_build_rejected(self, index):
        with pytest.raises(StorageError):
            index.build([(1, 1)])

    def test_spans_multiple_pages(self, index):
        assert index.num_pages > 1
        assert index.num_entries == 1000


class TestLookup:
    def test_hits(self, index):
        assert index.lookup(0) == 0
        assert index.lookup(1000) == 100000
        assert index.lookup(1998) == 199800

    def test_miss_raises(self, index):
        with pytest.raises(KeyNotFoundError):
            index.lookup(3)

    def test_get_with_default(self, index):
        assert index.get(3, default=-1) == -1
        assert index.get(4) == 400

    def test_key_below_first(self, index):
        assert index.get(-5) is None

    def test_empty_index(self, catalog):
        isam = IsamIndex(catalog.pool)
        isam.build([])
        assert isam.get(1) is None


@pytest.mark.parametrize("seed", range(8))
def test_random_builds_probe_and_check(catalog, seed):
    """Random key sets, from empty to several pages: every key in the
    domain probes as built, and the structure checks hold."""
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(400), rng.choice([0, 1, 5, 60, 300])))
    isam = IsamIndex(catalog.pool, "i%d" % seed)
    isam.build([(k, k * 7) for k in keys])
    isam.check_invariants()
    present = set(keys)
    for k in range(-2, 402):
        assert isam.get(k) == (k * 7 if k in present else None)


class TestIoBehaviour:
    def test_probe_costs_one_page_when_cold(self, catalog, index):
        catalog.pool.clear(flush=True)
        catalog.disk.reset_counters()
        index.lookup(1000)
        assert catalog.disk.reads == 1

    def test_repeated_probe_is_free(self, catalog, index):
        index.lookup(1000)
        catalog.disk.reset_counters()
        index.lookup(1000)
        assert catalog.disk.reads == 0


@pytest.mark.parametrize(
    "entries",
    [[(1, 0), (1, 1), (2, 0)], [(1, 0), (2, 0), (2, 1)], [(2, 0), (1, 0), (3, 0)],
     [(1, 0), (3, 0), (2, 0)]],
    ids=["duplicate_first", "duplicate_last", "unsorted_first", "unsorted_last"],
)
def test_a_refused_build_allocates_nothing_and_leaves_it_buildable(catalog, entries):
    isam = IsamIndex(catalog.pool, "i")
    with pytest.raises(StorageError):
        isam.build(entries)
    assert isam.num_pages == 0
    isam.check_invariants()
    isam.build([(1, 10), (2, 20)])
    isam.check_invariants()
    assert isam.get(2) == 20


# check_invariants: each structural check fires on its own fault.
def _page(isam, idx):
    return isam.pool.disk.peek_page(isam.pool.disk.page_ids(isam.file_id)[idx])


def _extra_directory_key(isam):
    isam._directory.append(10**9)


def _repeat_a_directory_key(isam):
    isam._directory[1] = isam._directory[0]


def _reorder_primary_pages(isam):
    nos = isam._primary_nos
    nos[0], nos[1] = nos[1], nos[0]


def _empty_the_last_page(isam):
    isam._num_entries -= len(_page(isam, isam.num_pages - 1).pop_all())


def _repeat_a_key_on_a_page(isam):
    page = _page(isam, 0)
    page.replace(1, (page.get(0)[0], 0))


def _shift_a_directory_key(isam):
    isam._directory[1] -= 1  # keys are even: lands in the gap


def _lower_a_directory_key_to_the_last_key_before(isam):
    page = _page(isam, 0)
    isam._directory[1] = page.get(len(page) - 1)[0]


def _bump_the_tally(isam):
    isam._num_entries += 1


def _rewrite_a_memoized_key(isam):
    # In order and below the next page, on a page a probe has memoized:
    # only the memo check can tell.
    assert isam.get(2) == 200
    _page(isam, 0).replace(1, (3, 200))


_ISAM_FAULTS = [
    (_extra_directory_key, "directory has"),
    (_repeat_a_directory_key, "not strictly increasing"),
    (_reorder_primary_pages, "not the .* allocated pages in order"),
    (_empty_the_last_page, "empty isam page"),
    (_repeat_a_key_on_a_page, "not sorted within itself"),
    (_shift_a_directory_key, "opens with"),
    (_lower_a_directory_key_to_the_last_key_before, "above the next directory key"),
    (_bump_the_tally, "pages hold"),
    (_rewrite_a_memoized_key, "memoized keys of page 0 differ"),
]


@pytest.mark.parametrize(
    "corrupt, message", _ISAM_FAULTS, ids=[f.__name__[1:] for f, _ in _ISAM_FAULTS]
)
def test_check_invariants_catches(index, corrupt, message):
    assert index.num_pages >= 2
    index.check_invariants()
    corrupt(index)
    with pytest.raises(AssertionError, match=message):
        index.check_invariants()


def test_clones_share_one_key_memo(catalog, index):
    catalog.pool.clear(flush=True)
    disk = catalog.disk
    disk.freeze()
    one, two = (copy.deepcopy(index, {id(disk): disk.clone()}) for _ in range(2))
    assert one.get(2) == 200
    assert one._memo is two._memo is index._memo
    assert two._memo.keys  # filled by the other clone's probe
    assert two.get(2) == 200 and two.get(3) is None
    two.check_invariants()


def test_check_invariants_catches_an_unbuilt_index_carrying_entries(catalog):
    isam = IsamIndex(catalog.pool, "unbuilt")
    isam.check_invariants()
    isam._num_entries = 1
    with pytest.raises(AssertionError, match="unbuilt isam"):
        isam.check_invariants()
