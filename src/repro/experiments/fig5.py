"""Figure 5: ParCost/ChildCost/TotCost vs ShareFactor for DFSCLUST and BFS.

Paper setting: NumTop = 200, Pr(UPDATE) -> 1, ShareFactor swept via
UseFactor with OverlapFactor = 1.  The update-saturated limit is modelled
with ``cold_retrieves``: an unbounded update stream between retrieves
leaves no buffer residue (and makes caching useless, which is why the
paper chose it — DFSCACHE is out of the picture).  Expected shape
(Figures 5a/5b):

* DFSCLUST: ParCost *increases* as ShareFactor decreases (better
  clustering inflates the contiguous parent scan with co-located
  subobjects); ChildCost decreases; the total is dominated by ChildCost;
* BFS: ParCost flat; ChildCost *decreases* with ShareFactor because
  |ChildRel| = 50000/ShareFactor shrinks (eqn. 1);
* the total-cost curves cross (near ShareFactor 4.7 in the paper).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.pool import PointCache, RetryPolicy, SweepPoint, run_sweep
from repro.experiments.runner import ExperimentResult
from repro.workload.params import WorkloadParams

USE_FACTORS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16)
#: NumTop as a fraction of |ParentRel| — 200/10000 in the paper.
NUM_TOP_FRACTION = 0.02


def default_params(scale: float = 1.0) -> WorkloadParams:
    return WorkloadParams(overlap_factor=1, pr_update=0.0).scaled(scale)


def run(
    scale: float = 1.0,
    num_retrieves: Optional[int] = None,
    use_factors: Sequence[int] = USE_FACTORS,
    params: Optional[WorkloadParams] = None,
    jobs: int = 1,
    point_cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExperimentResult:
    """One row per ShareFactor with both strategies' cost breakdown."""
    base = params or default_params(scale)
    num_top = max(1, round(base.num_parents * NUM_TOP_FRACTION))
    cells = [
        base.replace(use_factor=use_factor, num_top=num_top)
        for use_factor in use_factors
    ]
    points = [
        SweepPoint(
            params=cell,
            strategy=name,
            num_retrieves=num_retrieves,
            cold_retrieves=True,
        )
        for cell in cells
        for name in ("DFSCLUST", "BFS")
    ]
    reports = iter(run_sweep(points, jobs=jobs, cache=point_cache, policy=policy))

    rows: List[List] = []
    for cell in cells:
        row: List = [cell.share_factor]
        for _ in ("DFSCLUST", "BFS"):
            report = next(reports)
            row.extend(
                [
                    round(report.par_cost_per_retrieve, 1),
                    round(report.child_cost_per_retrieve, 1),
                    round(report.avg_io_per_retrieve, 1),
                ]
            )
        rows.append(row)

    return ExperimentResult(
        name="fig5",
        title=(
            "Figure 5: cost breakdown vs ShareFactor at NumTop=%d "
            "(|ParentRel|=%d)" % (num_top, base.num_parents)
        ),
        headers=[
            "ShareFactor",
            "clust_ParCost",
            "clust_ChildCost",
            "clust_TotCost",
            "bfs_ParCost",
            "bfs_ChildCost",
            "bfs_TotCost",
        ],
        rows=rows,
    )


def crossover_share_factor(result: ExperimentResult) -> Optional[int]:
    """Smallest ShareFactor at which BFS's total beats DFSCLUST's."""
    for row in result.rows:
        share, clust_total, bfs_total = row[0], row[3], row[6]
        if bfs_total < clust_total:
            return share
    return None
