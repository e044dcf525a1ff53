"""Figure 3: DFS vs BFS vs BFSNODUP, cost vs NumTop.

Paper setting: ShareFactor = 5 (UseFactor 5, OverlapFactor 1), no updates,
no caching, no clustering; NumTop swept from 1 to |ParentRel| on a log
scale.  Expected shape:

* DFS loses "when NumTop exceeds 50 or so" (nested-loop vs merge join);
* at NumTop = 1 BFS is slightly worse than DFS (temporary-forming cost);
* BFSNODUP "is not much better than simple BFS".
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.pool import PointCache, RetryPolicy, SweepPoint, run_sweep
from repro.experiments.runner import ExperimentResult, scaled_num_tops
from repro.workload.params import WorkloadParams

STRATEGIES = ("DFS", "BFS", "BFSNODUP")

#: NumTop sweep as fractions of |ParentRel| (1 is forced in).
NUM_TOP_FRACTIONS = (0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)


def default_params(scale: float = 1.0) -> WorkloadParams:
    return WorkloadParams(use_factor=5, overlap_factor=1, pr_update=0.0).scaled(scale)


def run(
    scale: float = 1.0,
    num_retrieves: Optional[int] = None,
    params: Optional[WorkloadParams] = None,
    jobs: int = 1,
    point_cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExperimentResult:
    """Run the Figure 3 sweep; one row per NumTop value."""
    base = params or default_params(scale)
    num_tops = scaled_num_tops(base, NUM_TOP_FRACTIONS)
    points = [
        SweepPoint(
            params=base.replace(num_top=num_top),
            strategy=name,
            num_retrieves=num_retrieves,
        )
        for num_top in num_tops
        for name in STRATEGIES
    ]
    reports = iter(run_sweep(points, jobs=jobs, cache=point_cache, policy=policy))

    rows: List[List] = []
    for num_top in num_tops:
        row: List = [num_top]
        for _ in STRATEGIES:
            row.append(round(next(reports).avg_io_per_retrieve, 1))
        rows.append(row)

    return ExperimentResult(
        name="fig3",
        title=(
            "Figure 3: avg I/O per query vs NumTop "
            "(ShareFactor=%d, no caching/clustering, |ParentRel|=%d)"
            % (base.share_factor, base.num_parents)
        ),
        headers=["NumTop"] + list(STRATEGIES),
        rows=rows,
    )


def crossover_num_top(result: ExperimentResult) -> Optional[int]:
    """Smallest measured NumTop where BFS beats DFS (None if never)."""
    for row in result.rows:
        if row[2] < row[1]:
            return row[0]
    return None
