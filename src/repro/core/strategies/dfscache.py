"""DFSCACHE: depth-first search with an outside value cache.

Section 3.2: for each qualifying parent, "check if the value of the
subobjects ... is cached.  If so, fetch the attribute from the cache.
Otherwise, fetch the subobjects from the person relation (this is called
materialization), cache their values, and return the attribute."

The cache is maintained on the fly (freshly materialised units are
inserted), which forces a depth-first plan: a merge join would return
child tuples in OID order, losing unit identity, so "a breadth-first query
processing strategy in the presence of caching is unviable" — the paper's
reason DFSCACHE degrades at high NumTop relative to BFS.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, List, Optional

from repro.core.cache import UnitCache, inside_hashkey, unit_hashkey
from repro.core.database import ComplexObjectDB
from repro.core.measure import CHILD_PHASE, CostMeter, NullMeter, PARENT_PHASE
from repro.core.queries import RetrieveQuery
from repro.core.strategies.base import Strategy, register
from repro.obs.trace import stage


@register
class DfsCacheStrategy(Strategy):
    """DFS probing and maintaining the outside unit cache."""

    name = "DFSCACHE"
    uses_cache = True

    def retrieve(
        self,
        db: ComplexObjectDB,
        query: RetrieveQuery,
        meter: Optional[CostMeter] = None,
    ) -> List[Any]:
        self.check_database(db)
        meter = meter or NullMeter()
        cache = self._cache_of(db)
        with meter.phase(PARENT_PHASE), stage("scan"):
            parents = list(db.parents_in_range(query.lo, query.hi))
        results: List[Any] = []
        with meter.phase(CHILD_PHASE):
            project = itemgetter(db.child_schema.field_index(query.attr))
            unit_ref_of, hashkey_of = db.unit_ref_of, self._hashkey
            for parent in parents:
                rel_index, child_keys = unit_ref_of(parent)
                hashkey = hashkey_of(db, parent, rel_index, child_keys)
                payload = self._materialize_unit(
                    db, cache, hashkey, rel_index, child_keys
                )
                results.extend(map(project, payload))
        return results

    @staticmethod
    def _cache_of(db: ComplexObjectDB) -> UnitCache:
        return db.require_cache()

    @staticmethod
    def _hashkey(db: ComplexObjectDB, parent, rel_index: int, child_keys) -> int:
        """Outside caching keys a cached value by its unit."""
        return unit_hashkey(rel_index, child_keys)

    @staticmethod
    def _materialize_unit(db, cache, hashkey, rel_index, child_keys):
        """Cached unit payload, materialising and caching on a miss."""
        payload = cache.lookup(hashkey)  # tags itself cache-probe
        if payload is None:
            children = tuple(db.fetch_children(rel_index, child_keys))
            payload_bytes = sum(map(db.child_schema.record_size, children))
            # insert tags itself cache-maintain
            cache.insert(hashkey, rel_index, child_keys, children, payload_bytes)
            payload = children
        return payload


@register
class InsideDfsCacheStrategy(DfsCacheStrategy):
    """DFS with *inside* caching — the A3 ablation baseline.

    The cached value is keyed by the referencing object, so objects
    sharing a unit each burn a cache slot ([JHIN88] shows, and the
    ablation confirms, that outside caching dominates whenever units are
    shared and the cache is bounded).
    """

    name = "DFSCACHE-INSIDE"
    uses_inside_cache = True

    @staticmethod
    def _cache_of(db: ComplexObjectDB) -> UnitCache:
        return db.inside_cache

    @staticmethod
    def _hashkey(db: ComplexObjectDB, parent, rel_index: int, child_keys) -> int:
        return inside_hashkey(db.parent_key_of(parent))
