"""Unit cache: hashkeys, LRU bound, I-lock invalidation, stats."""

import pytest

from repro.core.cache import (
    ILockTable,
    UnitCache,
    inside_hashkey,
    unit_hashkey,
)
from repro.errors import RecordError


@pytest.fixture
def cache(catalog):
    return UnitCache(catalog, size_cache=4, unit_bytes_hint=500)


def payload_for(keys):
    return tuple((k, k, k, k, "d") for k in keys)


def put(cache, rel, keys):
    hk = unit_hashkey(rel, keys)
    cache.insert(hk, rel, keys, payload_for(keys), 100 * len(keys))
    return hk


class TestHashkey:
    def test_deterministic(self):
        assert unit_hashkey(0, (1, 2, 3)) == unit_hashkey(0, [1, 2, 3])

    def test_depends_on_relation_and_keys(self):
        assert unit_hashkey(0, (1, 2)) != unit_hashkey(1, (1, 2))
        assert unit_hashkey(0, (1, 2)) != unit_hashkey(0, (2, 1))


class TestLookupInsert:
    def test_miss_then_hit(self, cache):
        hk = unit_hashkey(0, (1, 2))
        assert cache.lookup(hk) is None
        put(cache, 0, (1, 2))
        assert cache.lookup(hk) == payload_for((1, 2))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_contains_is_directory_only(self, cache, catalog):
        hk = put(cache, 0, (1, 2))
        catalog.disk.reset_counters()
        assert cache.contains(hk)
        assert not cache.contains(999)
        assert catalog.disk.snapshot().total == 0

    def test_double_insert_is_noop(self, cache):
        put(cache, 0, (1, 2))
        put(cache, 0, (1, 2))
        assert cache.num_cached == 1

    def test_value_without_its_size_is_refused(self, cache):
        # A cached value is (payload, payload_bytes); a bare payload has
        # no size to read, and the cache relation never guesses one.
        for keys in ((1,), (1, 2)):
            with pytest.raises(RecordError):
                cache.relation.insert((unit_hashkey(0, keys), payload_for(keys)))
        assert cache.relation.lookup(unit_hashkey(0, (1,))) is None

    def test_size_cache_must_be_positive(self, catalog):
        with pytest.raises(ValueError):
            UnitCache(catalog, size_cache=0, unit_bytes_hint=100)


class TestEviction:
    def test_bounded_by_size_cache(self, cache):
        for i in range(10):
            put(cache, 0, (i, i + 100))
        assert cache.num_cached == 4
        assert cache.stats.evictions == 6

    def test_lru_victim(self, cache):
        keys = [put(cache, 0, (i, i + 100)) for i in range(4)]
        cache.lookup(keys[0])  # refresh unit 0
        put(cache, 0, (50, 51))  # evicts unit 1, the LRU
        assert cache.contains(keys[0])
        assert not cache.contains(keys[1])

    def test_evicted_unit_releases_ilocks(self, cache):
        put(cache, 0, (1, 2))
        for i in range(10, 15):
            put(cache, 0, (i, i + 100))
        # Unit (1, 2) was evicted; updating child 1 invalidates nothing.
        assert cache.invalidate_for_subobject(0, 1) == 0


class TestInvalidation:
    def test_update_invalidates_holding_units(self, cache):
        hk = put(cache, 0, (1, 2))
        assert cache.invalidate_for_subobject(0, 2) == 1
        assert not cache.contains(hk)
        assert cache.lookup(hk) is None
        assert cache.stats.invalidations == 1

    def test_shared_subobject_invalidates_all_units(self, catalog):
        cache = UnitCache(catalog, size_cache=8, unit_bytes_hint=500)
        a = put(cache, 0, (1, 2))
        b = put(cache, 0, (2, 3))
        assert cache.invalidate_for_subobject(0, 2) == 2
        assert not cache.contains(a)
        assert not cache.contains(b)

    def test_unrelated_update_is_free(self, cache, catalog):
        put(cache, 0, (1, 2))
        catalog.disk.reset_counters()
        assert cache.invalidate_for_subobject(0, 99) == 0
        assert catalog.disk.snapshot().total == 0

    def test_relation_scoped_locks(self, cache):
        put(cache, 0, (1, 2))
        assert cache.invalidate_for_subobject(1, 1) == 0  # other relation


class TestReset:
    def test_reset_clears_everything(self, cache):
        put(cache, 0, (1, 2))
        cache.reset()
        assert cache.num_cached == 0
        assert cache.stats.probes == 0
        assert cache.lookup(unit_hashkey(0, (1, 2))) is None


class TestILockTable:
    def test_register_unregister(self):
        table = ILockTable()
        table.register(0, [1, 2], 111)
        table.register(0, [2], 222)
        assert sorted(table.holders(0, 2)) == [111, 222]
        table.unregister(0, [1, 2], 111)
        assert table.holders(0, 2) == [222]
        assert table.holders(0, 1) == []

    def test_len_counts_locked_subobjects(self):
        table = ILockTable()
        table.register(0, [1, 2, 3], 1)
        assert len(table) == 3
        table.clear()
        assert len(table) == 0


class TestInsideCache:
    """Inside caching: the unit cache keyed by the referencing object."""

    def insert(self, cache, parent):
        cache.insert(inside_hashkey(parent), 0, (1, 2), payload_for((1, 2)), 200)

    def test_keyed_by_parent(self, catalog):
        cache = UnitCache(catalog, size_cache=4, unit_bytes_hint=500)
        self.insert(cache, 7)
        assert cache.lookup(inside_hashkey(7)) == payload_for((1, 2))
        # same unit, different parent: miss
        assert cache.lookup(inside_hashkey(8)) is None

    def test_no_sharing_burns_capacity(self, catalog):
        cache = UnitCache(catalog, size_cache=2, unit_bytes_hint=500)
        for parent in range(3):
            self.insert(cache, parent)
        assert cache.num_cached == 2  # three copies of one unit do not fit

    def test_invalidation_hits_every_copy(self, catalog):
        cache = UnitCache(catalog, size_cache=8, unit_bytes_hint=500)
        for parent in range(3):
            self.insert(cache, parent)
        assert cache.invalidate_for_subobject(0, 1) == 3
