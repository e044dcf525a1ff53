"""The outside unit cache and its invalidation machinery.

Section 3.2 of the paper:

* a *unit* is "a collection of subobjects which belong to one relation and
  which are referenced by one object";
* cached units live in ``Cache(hashkey, value)``, "a hash relation, hashed
  on hashkey", where the hashkey "is a function of the concatenation of
  the OID's in that unit";
* the cache is bounded to ``SizeCache`` units ("since the cache takes up
  disk space, it is reasonable to place a bound on size of the cache");
* each subobject holds an *invalidation lock* (I-lock) for every unit it
  belongs to; updating the subobject invalidates all those cached units.

This is *outside* caching — a cached unit is shared by every object
containing that unit, which is why higher UseFactor improves DFSCACHE
(Section 5.2.2).  Inside caching (per-object copies, no sharing), for
the A3 ablation, is the same :class:`UnitCache` keyed by
:func:`inside_hashkey` of the referencing object instead of the unit.

A cached value is stored as ``(payload, payload_bytes)``: it carries its
own size, so the one :data:`CACHE_SCHEMA` prices it with a pure function
and is shared by every cache and every snapshot clone.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.obs.trace import stage
from repro.storage.catalog import Catalog
from repro.storage.hashfile import HashFile, stable_hash
from repro.storage.record import BlobField, IntField, Schema


@lru_cache(maxsize=1 << 16)
def _unit_hashkey_cached(key: Tuple[int, ...]) -> int:
    return stable_hash(key)


def unit_hashkey(child_rel: int, child_keys: Sequence[int]) -> int:
    """The paper's hashkey: a deterministic function of the unit's OIDs.

    Memoized: the cached strategies recompute the hashkey of the same few
    thousand units on every retrieve and every invalidation, and the
    recursive :func:`stable_hash` walk showed up in sweep profiles.
    """
    return _unit_hashkey_cached((child_rel,) + tuple(child_keys))


def inside_hashkey(parent_key: int) -> int:
    """The inside cache's key: the referencing object, not the unit."""
    return stable_hash(("inside", parent_key))


#: ``Cache(hashkey, value)``, each value a ``(payload, payload_bytes)`` pair.
CACHE_SCHEMA = Schema(
    [IntField("hashkey"), BlobField("value", operator.itemgetter(1))]
)


class ILockTable:
    """Invalidation locks: subobject -> set of unit hashkeys holding it.

    The paper stores an I-lock "associated with each subobject ... for
    each unit that it belongs to"; a lock table keyed by subobject is the
    standard realisation ([STON87]).  Lock state is metadata, not data
    pages, so it costs no page I/O — matching the paper, whose invalidation
    cost is the cache deletions, not the lock bookkeeping.
    """

    def __init__(self) -> None:
        #: child relation -> subobject key -> hashkeys holding its I-lock.
        self._locks: Dict[int, Dict[int, Set[int]]] = {}

    def register(self, child_rel: int, child_keys: Iterable[int], hashkey: int) -> None:
        locks = self._locks.setdefault(child_rel, {})
        for key in child_keys:
            holders = locks.get(key)
            if holders is None:
                locks[key] = {hashkey}
            else:
                holders.add(hashkey)

    def unregister(
        self, child_rel: int, child_keys: Iterable[int], hashkey: int
    ) -> None:
        locks = self._locks.get(child_rel, {})
        for key in child_keys:
            holders = locks.get(key)
            if holders is not None:
                holders.discard(hashkey)
                if not holders:
                    del locks[key]

    def holders(self, child_rel: int, child_key: int) -> List[int]:
        """Hashkeys of cached units containing the given subobject."""
        return list(self._locks.get(child_rel, {}).get(child_key, ()))

    def clear(self) -> None:
        self._locks.clear()

    def __len__(self) -> int:
        return sum(map(len, self._locks.values()))


class CacheStats:
    """Hit/miss/insert/eviction/invalidation counters."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    def reset(self) -> None:
        self.__init__()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "CacheStats(hits=%d, misses=%d, evictions=%d, invalidations=%d)" % (
            self.hits,
            self.misses,
            self.evictions,
            self.invalidations,
        )


class UnitCache:
    """Disk-resident cache of materialised units, bounded to SizeCache.

    Payloads are the full child tuples of the unit (value caching).  The
    replacement policy is LRU over cached units; the paper bounds the
    cache's size but does not name a policy, and LRU is the natural choice
    for its query mix (uniformly random object selection).
    """

    def __init__(
        self,
        catalog: Catalog,
        size_cache: int,
        unit_bytes_hint: int,
        name: str = "Cache",
    ) -> None:
        if size_cache <= 0:
            raise ValueError("size_cache must be positive, got %d" % size_cache)
        self.size_cache = size_cache
        page_size = catalog.disk.page_size
        units_per_page = max(1, (page_size - 48) // max(1, unit_bytes_hint + 8))
        buckets = max(8, -(-size_cache // units_per_page))  # ceil division
        self.relation: HashFile = catalog.create_hash(
            name, CACHE_SCHEMA, "hashkey", buckets
        )
        self._lru: "OrderedDict[int, Tuple[int, Tuple[int, ...]]]" = OrderedDict()
        self.ilocks = ILockTable()
        self.stats = CacheStats()

    def lookup(self, hashkey: int) -> Optional[Tuple[Any, ...]]:
        """The cached child tuples for ``hashkey``, or None on a miss."""
        with stage("cache-probe"):
            record = self.relation.lookup(hashkey)
        if record is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._lru.move_to_end(hashkey)
        return record[1][0]

    def contains(self, hashkey: int) -> bool:
        """Membership test WITHOUT touching pages (cache directory check).

        The cache directory (which hashkeys are cached) is small metadata a
        system keeps in memory; probing the *values* costs I/O, checking
        membership does not.  SMART's breadth-first arm uses this.
        """
        return hashkey in self._lru

    def bucket_of(self, hashkey: int) -> int:
        """Physical bucket of a cached unit — lets batch readers sort
        their probes into page order so co-located units cost one read."""
        return self.relation._bucket(hashkey)

    def insert(
        self,
        hashkey: int,
        child_rel: int,
        child_keys: Sequence[int],
        payload: Tuple[Any, ...],
        payload_bytes: int,
    ) -> None:
        """Cache a freshly materialised unit, evicting LRU units if full."""
        if hashkey in self._lru:
            return  # already cached (shared unit raced in via another parent)
        with stage("cache-maintain"):
            while len(self._lru) >= self.size_cache:
                victim, (victim_rel, victim_keys) = self._lru.popitem(last=False)
                self.relation.delete_if_present(victim)
                self.ilocks.unregister(victim_rel, victim_keys, victim)
                self.stats.evictions += 1
            self.relation.insert((hashkey, (payload, payload_bytes)))
        self._lru[hashkey] = (child_rel, tuple(child_keys))
        self.ilocks.register(child_rel, child_keys, hashkey)
        self.stats.insertions += 1

    def invalidate_for_subobject(self, child_rel: int, child_key: int) -> int:
        """Drop every cached unit whose I-lock the subobject holds.

        Returns how many units were invalidated.  The hash-file deletions
        are real page I/O — "the cost of invalidation has to be paid"
        (Section 5.2.1).
        """
        with stage("cache-maintain"):
            count = sum(map(self.discard, self.ilocks.holders(child_rel, child_key)))
        self.stats.invalidations += count
        return count

    def discard(self, hashkey: int) -> bool:
        """Drop one cached unit and its I-locks; whether it was cached."""
        entry = self._lru.pop(hashkey, None)
        if entry is None:
            return False
        self.relation.delete_if_present(hashkey)
        self.ilocks.unregister(entry[0], entry[1], hashkey)
        return True

    def reset(self) -> None:
        """Empty the cache (between experiment points)."""
        self.relation.truncate()
        self._lru.clear()
        self.ilocks.clear()
        self.stats.reset()

    @property
    def num_cached(self) -> int:
        return len(self._lru)
