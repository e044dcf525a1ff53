"""Multi-level complex objects and transitive query processing.

Section 3 of the paper notes that its two-dot query "has characteristics
similar to transitive closure queries" and that "queries involving more
than two dots in the target list require more levels of relationships to
be explored"; Section 5.1 adds that "the benefits of BFSNODUP will
increase with an increase in the number of levels explored.  But our
experiments have shown that the benefit so obtained is marginal at
best."

This module generalises the machinery to an L-level hierarchy::

    Level0Rel.children -> Level1Rel.children -> ... -> Level{L}Rel

and implements the two classic evaluation schemes from [BANC86]:

* :func:`deep_dfs` — recursion: expand each object's subobjects the
  moment it is reached (nested random fetches all the way down);
* :func:`deep_bfs` — iteration: resolve one level at a time with a
  sorted temporary and a merge-probe join, optionally eliminating
  duplicate OIDs between levels (``dedup=True`` = BFSNODUP).  Duplicates
  compound multiplicatively across shared levels, which is exactly why
  the paper expected BFSNODUP to gain with depth.

Databases are built by :func:`repro.workload.deepgen.build_deep_database`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence

from repro.core.measure import CHILD_PHASE, CostMeter, NullMeter, PARENT_PHASE
from repro.core.oid import Oid
from repro.errors import QueryError
from repro.query.join import iterative_substitution_join, join_sorted_temp
from repro.query.sort import external_sort
from repro.query.temp import make_temp
from repro.storage.btree import BTreeFile
from repro.storage.catalog import Catalog
from repro.storage.record import IntField, Schema

#: Schema of the per-level OID temporaries.
_TEMP_SCHEMA = Schema([IntField("OID")])


@dataclass
class DeepQuery:
    """``retrieve (Level0Rel.children^depth.attr) where lo <= OID <= hi``.

    ``depth`` counts the levels of ``children`` dereferencing: depth 1 is
    the paper's two-dot query; depth L reaches the leaves of an L-level
    hierarchy.
    """

    lo: int
    hi: int
    depth: int
    attr: str = "ret1"

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise QueryError("empty root range [%d, %d]" % (self.lo, self.hi))
        if self.depth < 1:
            raise QueryError("depth must be >= 1, got %d" % self.depth)


class DeepDatabase:
    """An L-level hierarchy of B-tree relations.

    ``levels[k]`` stores the level-k objects; every record is
    ``(oid, ret1, ret2, ret3, dummy, children)`` with ``children`` a list
    of :class:`Oid` values pointing into ``levels[k+1]`` (empty at the
    deepest level).
    """

    def __init__(self, catalog: Catalog, levels: Sequence[BTreeFile]) -> None:
        if len(levels) < 2:
            raise QueryError("a deep database needs at least two levels")
        self.catalog = catalog
        self.levels = list(levels)
        self._children_index = levels[0].schema.field_index("children")

    @property
    def depth(self) -> int:
        """Number of dereferencing steps available (levels - 1)."""
        return len(self.levels) - 1

    @property
    def pool(self):
        return self.catalog.pool

    @property
    def disk(self):
        return self.catalog.disk

    def children_of(self, record) -> List[Oid]:
        return list(record[self._children_index])

    def attr_index(self, level: int, attr: str) -> int:
        return self.levels[level].schema.field_index(attr)

    def check_query(self, query: DeepQuery) -> None:
        if query.depth > self.depth:
            raise QueryError(
                "query depth %d exceeds database depth %d"
                % (query.depth, self.depth)
            )

    def start_measurement(self, cold: bool = True) -> None:
        if cold:
            self.pool.clear(flush=True)
        self.disk.reset_counters()
        self.pool.stats.reset()


def deep_dfs(
    db: DeepDatabase, query: DeepQuery, meter: Optional[CostMeter] = None
) -> List[Any]:
    """Recursive (depth-first) expansion, one random fetch per reference."""
    db.check_query(query)
    meter = meter or NullMeter()
    with meter.phase(PARENT_PHASE):
        roots = list(db.levels[0].range_scan(query.lo, query.hi))

    results: List[Any] = []
    target = itemgetter(db.attr_index(query.depth, query.attr))

    def expand(record, level: int) -> None:
        inner = db.levels[level + 1]
        keys = [oid.key for oid in db.children_of(record)]
        if level + 1 == query.depth:
            results.extend(iterative_substitution_join(keys, inner, target))
            return
        # One-key joins: each child's own expansion runs before the next probe.
        for key in keys:
            for child in iterative_substitution_join((key,), inner):
                expand(child, level + 1)

    with meter.phase(CHILD_PHASE):
        for root in roots:
            expand(root, 0)
    return results


def deep_bfs(
    db: DeepDatabase,
    query: DeepQuery,
    meter: Optional[CostMeter] = None,
    dedup: bool = False,
) -> List[Any]:
    """Iterative (breadth-first) expansion, one sorted join per level.

    With ``dedup`` the per-level temporary is made distinct before the
    join (BFSNODUP): at depth 1 this only trims the temporary, but at
    greater depths it stops duplicate subtrees from being re-expanded, so
    its relative benefit grows with both depth and sharing.

    Note the result semantics under ``dedup``: like the paper's
    BFSNODUP, each distinct object at every level is expanded once, so
    duplicated values that pure navigation would multiply out are
    collapsed.
    """
    db.check_query(query)
    meter = meter or NullMeter()
    with meter.phase(PARENT_PHASE):
        frontier = [
            oid.key
            for record in db.levels[0].range_scan(query.lo, query.hi)
            for oid in db.children_of(record)
        ]

    results: List[Any] = []
    with meter.phase(CHILD_PHASE):
        for level in range(1, query.depth + 1):
            temp = make_temp(
                db.pool, _TEMP_SCHEMA, [(k,) for k in frontier], prefix="deep"
            )
            sorted_temp = external_sort(
                db.pool, temp, key=itemgetter(0), distinct=dedup
            )
            matches = join_sorted_temp(sorted_temp, db.levels[level])
            if level == query.depth:
                attr = db.attr_index(level, query.attr)
                results.extend(record[attr] for record in matches)
            else:
                frontier = [
                    oid.key
                    for record in matches
                    for oid in db.children_of(record)
                ]
    return results


def deep_reference_values(db: DeepDatabase, query: DeepQuery) -> List[Any]:
    """Model answer for tests: pure navigation over the logical structure."""
    db.check_query(query)
    out: List[Any] = []
    attr = db.attr_index(query.depth, query.attr)

    def walk(record, level):
        if level == query.depth:
            out.append(record[attr])
            return
        for oid in db.children_of(record):
            walk(db.levels[level + 1].lookup_one(oid.key), level + 1)

    for root in db.levels[0].range_scan(query.lo, query.hi):
        walk(root, 0)
    return out
