"""DFS: depth-first search, no caching, no clustering.

Section 3.1 strategy [1]: "For each OID of 'elders', fetch the
corresponding subobject from the relation person, and return its name."
Physically this is a nested-loop (iterative-substitution) join: one full
B-tree descent into the owning ChildRel per subobject OID, in the order
the OIDs appear in the parents' ``children`` attributes.

DFS wins at very small NumTop (no temporary to build) and "is a loser when
NumTop exceeds 50 or so" (Figure 3) because random descents re-read leaf
pages that a merge join would visit once.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import attrgetter, itemgetter
from typing import Any, List, Optional

from repro.core.database import ComplexObjectDB
from repro.core.measure import CHILD_PHASE, CostMeter, NullMeter, PARENT_PHASE
from repro.core.queries import RetrieveQuery
from repro.core.strategies.base import Strategy, register
from repro.obs.trace import stage


@register
class DfsStrategy(Strategy):
    """Per-object random fetches of subobjects."""

    name = "DFS"

    def retrieve(
        self,
        db: ComplexObjectDB,
        query: RetrieveQuery,
        meter: Optional[CostMeter] = None,
    ) -> List[Any]:
        self.check_database(db)
        meter = meter or NullMeter()
        with meter.phase(PARENT_PHASE), stage("scan"):
            parents = list(db.parents_in_range(query.lo, query.hi))
        results: List[Any] = []
        with meter.phase(CHILD_PHASE):
            attr = itemgetter(db.child_schema.field_index(query.attr))
            children = itemgetter(db.parent_schema.field_index("children"))
            oids = chain.from_iterable(map(children, parents))
            # One join per run of consecutive OIDs into the same relation.
            for rel, run in groupby(oids, key=attrgetter("rel")):
                results += db.fetch_children(rel - 1, [oid.key for oid in run], attr)
        return results
