"""OPT: a per-query cost-based choice between DFS and BFS.

Section 4 of the paper: "Depending on the query processing strategy being
studied, an optimal plan for each query in the sequence was then
generated."  Within the no-cache/no-cluster representation point, the
real choice the optimizer faces is iterative substitution (DFS) versus
temporary + merge join (BFS) — "iterative substitution is best when temp
is small ... merge-join is the optimal strategy when the size of the
temporary is large" (Section 3.1).

``OptStrategy`` makes that choice from optimizer-grade statistics only
(page and record counts from the catalog, the query's NumTop), using the
Cardenas/Yao estimate ``L * (1 - exp(-k/L))`` for distinct pages touched
by ``k`` uniform probes over ``L`` pages.  Its cost model:

* DFS child cost: ``k`` random descents; leaves re-read unless the
  relation fits in the buffer pool, so estimate ``min(k, touched)`` when
  it fits, ``k`` when it does not (every probe is a likely miss);
* BFS child cost: temporary write+read (+1 sort pass beyond the
  workspace), plus ``touched`` leaf reads.

The registered name is ``OPT``.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from repro.core.database import ComplexObjectDB
from repro.core.measure import CostMeter
from repro.core.queries import RetrieveQuery
from repro.core.strategies.base import Strategy, register
from repro.core.strategies.bfs import BfsStrategy
from repro.core.strategies.dfs import DfsStrategy


def pages_touched(keys: float, pages: float) -> float:
    """Expected distinct pages hit by ``keys`` uniform probes (Cardenas)."""
    if pages <= 0 or keys <= 0:
        return 0.0
    return pages * (1.0 - math.exp(-keys / pages))


def child_probes(db: ComplexObjectDB, num_top: int) -> Tuple[float, int]:
    """``(keys, child leaf pages)`` for ``num_top`` parents, from catalog
    statistics: ``keys`` is ``num_top`` times the mean width of the
    ``children`` attribute — an ANALYZE-style statistic, available
    without touching data pages at plan time.  Callers round as they
    need (EXPLAIN prints whole keys, OPT costs the float)."""
    referenced = sum(len(unit.child_keys) * len(unit.parents) for unit in db.units)
    fanout = max(1.0, referenced / max(1, db.parent_rel.num_records))
    return num_top * fanout, sum(rel.num_leaf_pages for rel in db.child_rels)


class PlanEstimate:
    """The optimizer's view of one query (exposed for tests/EXPLAIN)."""

    def __init__(self, dfs_cost: float, bfs_cost: float) -> None:
        self.dfs_cost = dfs_cost
        self.bfs_cost = bfs_cost

    @property
    def choice(self) -> str:
        return "DFS" if self.dfs_cost <= self.bfs_cost else "BFS"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "PlanEstimate(DFS=%.1f, BFS=%.1f -> %s)" % (
            self.dfs_cost,
            self.bfs_cost,
            self.choice,
        )


@register
class OptStrategy(Strategy):
    """Per-query cost-based selection between DFS and BFS."""

    name = "OPT"

    def __init__(self) -> None:
        self._dfs = DfsStrategy()
        self._bfs = BfsStrategy()
        #: Chosen plans, newest last (introspection for tests and demos).
        self.decisions: List[str] = []

    # ------------------------------------------------------------------
    def estimate(self, db: ComplexObjectDB, query: RetrieveQuery) -> PlanEstimate:
        """Cost both plans from catalog statistics."""
        k, child_pages = child_probes(db, query.num_top)
        touched = pages_touched(k, child_pages)

        if child_pages <= db.pool.capacity:
            dfs_child = min(k, touched)
        else:
            dfs_child = float(k)

        temp_pages = max(1.0, k * 6.0 / db.disk.page_size)
        bfs_child = 2.0 * temp_pages + touched

        return PlanEstimate(dfs_cost=dfs_child, bfs_cost=bfs_child)

    # ------------------------------------------------------------------
    def retrieve(
        self,
        db: ComplexObjectDB,
        query: RetrieveQuery,
        meter: Optional[CostMeter] = None,
    ) -> List[Any]:
        estimate = self.estimate(db, query)
        self.decisions.append(estimate.choice)
        if estimate.choice == "DFS":
            return self._dfs.retrieve(db, query, meter)
        return self._bfs.retrieve(db, query, meter)
