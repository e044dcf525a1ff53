"""BFS and BFSNODUP: breadth-first search, no caching, no clustering.

Section 3.1 strategies [2] and [3]: collect the subobject OIDs of every
qualifying parent into a temporary relation, then join the temporary with
ChildRel.  "Whenever we talk of a competitive BFS strategy, we imply a
merge-join": the temporary is sorted on OID (ChildRel is a B-tree on OID,
hence already ordered) and the join is a coordinated forward walk that
touches each qualifying ChildRel leaf once.

BFSNODUP additionally eliminates duplicate OIDs before the join.  Because
the merge walk reads a leaf at most once whether a key probes it one time
or five, duplicate elimination "is not much better than simple BFS" in
this workload (Figure 3) — the savings are confined to the temporary's
size.

With several child relations (Section 6.2) the temporary is partitioned
per relation and one join runs per child relation the qualifying parents
actually reference.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import attrgetter, itemgetter
from typing import Any, Dict, List, Optional

from repro.core.database import ComplexObjectDB
from repro.core.measure import CHILD_PHASE, CostMeter, NullMeter, PARENT_PHASE
from repro.core.queries import RetrieveQuery
from repro.core.strategies.base import Strategy, register
from repro.obs.trace import stage
from repro.query.join import join_sorted_temp
from repro.query.sort import external_sort
from repro.query.temp import make_temp
from repro.storage.record import IntField, Schema

#: Schema of the BFS temporary: a single OID attribute (Section 3.1).
TEMP_SCHEMA = Schema([IntField("OID")])


class _BreadthFirst(Strategy):
    """Shared machinery for BFS and BFSNODUP."""

    distinct = False

    def retrieve(
        self,
        db: ComplexObjectDB,
        query: RetrieveQuery,
        meter: Optional[CostMeter] = None,
    ) -> List[Any]:
        self.check_database(db)
        meter = meter or NullMeter()
        pool = db.pool

        # Phase 1: scan qualifying parents a leaf at a time, filling one
        # temporary of OIDs per referenced child relation.  Nothing
        # touches the pool between two parents of one leaf, so the leaf's
        # OIDs are spooled in consecutive same-relation runs, one
        # insert_many each (identical touch-per-record accounting).
        temps: Dict[int, Any] = {}
        children_index = db.parent_schema.field_index("children")
        with meter.phase(PARENT_PHASE), stage("scan"):
            for parents in db.parent_rel.range_scan_pages(query.lo, query.hi):
                oids = chain.from_iterable(map(itemgetter(children_index), parents))
                for rel, run in groupby(oids, attrgetter("rel")):
                    rel_index = rel - 1
                    temp = temps.get(rel_index)
                    if temp is None:
                        temp = make_temp(pool, TEMP_SCHEMA, prefix="bfs-temp")
                        temps[rel_index] = temp
                    temp.insert_many([(oid.key,) for oid in run])

        # Phase 2: per child relation — sort the temporary (dropping
        # duplicates for BFSNODUP) and merge-join it with ChildRel.
        results: List[Any] = []
        with meter.phase(CHILD_PHASE):
            project = itemgetter(db.child_schema.field_index(query.attr))
            for rel_index in sorted(temps):
                temp = temps[rel_index]
                temp.seal()
                sorted_temp = external_sort(
                    pool, temp, key=itemgetter(0), distinct=self.distinct
                )
                results.extend(
                    join_sorted_temp(sorted_temp, db.child_rel(rel_index), project)
                )
        return results


@register
class BfsStrategy(_BreadthFirst):
    """Temporary of OIDs + merge join (duplicates kept)."""

    name = "BFS"
    distinct = False


@register
class BfsNoDupStrategy(_BreadthFirst):
    """BFS with duplicate OIDs removed before the join."""

    name = "BFSNODUP"
    distinct = True
