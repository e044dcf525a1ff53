"""SMART: cache-friendly hybrid of DFSCACHE and a cache-aware BFS.

Section 5.3 of the paper: "When the query has a low NumTop, use DFSCACHE,
and maintain the cache.  However, if NumTop > N (where N = 300 in our
experiments), use a breadth-first strategy, and do not try to maintain
cache ... scan the NumTop tuples and collect into temp the OID's whose
units are not cached; and then implement the merge-join.  The status of
the cache remains invariant during the execution of the breadth-first
strategy."

Knowing *whether* a unit is cached is a directory check (in-memory
metadata, no page I/O); fetching a cached unit's *values* reads its hash
page.  The breadth-first arm therefore pays one cache read per distinct
cached unit plus a merge join over only the uncached OIDs — a temporary
"no larger than the temporary used in BFS".
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional

from repro.core.cache import unit_hashkey
from repro.core.database import ComplexObjectDB
from repro.core.measure import CHILD_PHASE, CostMeter, NullMeter, PARENT_PHASE
from repro.core.queries import RetrieveQuery
from repro.core.strategies.base import Strategy, register
from repro.core.strategies.bfs import TEMP_SCHEMA
from repro.core.strategies.dfscache import DfsCacheStrategy
from repro.core.strategies.optimizer import pages_touched
from repro.obs.trace import stage
from repro.query.join import join_sorted_temp
from repro.query.sort import external_sort
from repro.query.temp import make_temp

DEFAULT_SMART_THRESHOLD = 300


@register
class SmartStrategy(Strategy):
    """DFSCACHE below the NumTop threshold, cache-aware BFS above it."""

    name = "SMART"
    uses_cache = True

    def __init__(self, threshold: int = DEFAULT_SMART_THRESHOLD) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1, got %d" % threshold)
        self.threshold = threshold
        self._dfscache = DfsCacheStrategy()

    def retrieve(
        self,
        db: ComplexObjectDB,
        query: RetrieveQuery,
        meter: Optional[CostMeter] = None,
    ) -> List[Any]:
        self.check_database(db)
        if query.num_top <= self.threshold:
            return self._dfscache.retrieve(db, query, meter)
        return self._breadth_first(db, query, meter or NullMeter())

    def _breadth_first(
        self, db: ComplexObjectDB, query: RetrieveQuery, meter: CostMeter
    ) -> List[Any]:
        cache = db.require_cache()
        pool = db.pool
        attr_index = db.child_schema.field_index(query.attr)
        project = itemgetter(attr_index)
        results: List[Any] = []

        # Scan parents, splitting their units into cached and uncached
        # (a directory check — no value pages are touched yet).
        cached_units: List[tuple] = []  # (hashkey,)
        uncached: Dict[int, List[int]] = {}
        cached_keys: Dict[int, List[int]] = {}
        with meter.phase(PARENT_PHASE), stage("scan"):
            for parent in db.parents_in_range(query.lo, query.hi):
                rel_index, child_keys = db.unit_ref_of(parent)
                hashkey = unit_hashkey(rel_index, child_keys)
                if cache.contains(hashkey):
                    cached_units.append(hashkey)
                    cached_keys.setdefault(rel_index, []).extend(child_keys)
                else:
                    uncached.setdefault(rel_index, []).extend(child_keys)

        # Optimizer decision: is answering the cached units from the
        # cache cheaper than simply joining their OIDs along with the
        # rest?  At saturating NumTop the merge join touches nearly every
        # ChildRel leaf either way, so consulting the cache would only
        # add its page reads.  Either plan leaves the cache invariant.
        use_cache = cached_units and self._cache_pays_off(
            db, cache, cached_units, uncached, cached_keys
        )

        with meter.phase(CHILD_PHASE):
            if use_cache:
                # Fetch cached values in physical (bucket) order: units
                # sharing a cache page then cost a single page read.
                cached_units.sort(key=cache.bucket_of)
                for hashkey in cached_units:
                    payload = cache.lookup(hashkey)
                    if payload is None:  # invalidated between scan and fetch
                        continue
                    results.extend(child[attr_index] for child in payload)
                join_keys = uncached
            else:
                join_keys = {
                    rel_index: uncached.get(rel_index, []) + cached_keys.get(rel_index, [])
                    for rel_index in set(uncached) | set(cached_keys)
                }
            for rel_index in sorted(join_keys):
                keys = join_keys[rel_index]
                if not keys:
                    continue
                temp = make_temp(
                    pool, TEMP_SCHEMA, [(k,) for k in keys], prefix="smart-temp"
                )
                sorted_temp = external_sort(pool, temp, key=itemgetter(0))
                results.extend(
                    join_sorted_temp(sorted_temp, db.child_rel(rel_index), project)
                )
        return results

    @staticmethod
    def _cache_pays_off(
        db: ComplexObjectDB,
        cache,
        cached_units: List[tuple],
        uncached: Dict[int, List[int]],
        cached_keys: Dict[int, List[int]],
    ) -> bool:
        """Estimate whether reading cached values beats joining their OIDs.

        Uses only optimizer-grade statistics (page counts) and OPT's
        Cardenas/Yao estimate of distinct pages touched
        (:func:`~repro.core.strategies.optimizer.pages_touched`).
        """
        cache_pages = max(1, cache.relation.num_pages)
        cache_read_cost = pages_touched(len(cached_units), cache_pages)
        join_savings = 0.0
        for rel_index in set(uncached) | set(cached_keys):
            leaves = max(1, db.child_rel(rel_index).num_leaf_pages)
            k_all = len(uncached.get(rel_index, ())) + len(
                cached_keys.get(rel_index, ())
            )
            k_unc = len(uncached.get(rel_index, ()))
            join_savings += pages_touched(k_all, leaves) - pages_touched(
                k_unc, leaves
            )
        return cache_read_cost < join_savings
