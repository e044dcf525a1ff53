"""Figure 7: the effect of OverlapFactor on clustering.

Paper setting: ShareFactor fixed at 5, realised two ways —
(OverlapFactor=1, UseFactor=5) vs (OverlapFactor=5, UseFactor=1) — with
Cost(DFSCLUST)/Cost(BFS) plotted against NumTop.  The paper's
Pr(UPDATE)=1 setting (chosen to exclude DFSCACHE) is modelled with
``cold_retrieves``: the unbounded update stream between retrieves leaves
no buffer residue.

Expected shape:

* the OverlapFactor=5 curve lies "considerably above" the
  OverlapFactor=1 curve — with overlapping units a subobject's unit-mates
  are scattered, so chasing a shared unit costs up to SizeUnit random
  accesses instead of one;
* the NumTop beyond which BFS beats DFSCLUST (ratio > 1) moves *lower*
  as OverlapFactor grows.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.pool import PointCache, RetryPolicy, SweepPoint, run_sweep
from repro.experiments.runner import ExperimentResult, scaled_num_tops
from repro.workload.params import WorkloadParams

CONFIGS = (
    {"overlap_factor": 1, "use_factor": 5},
    {"overlap_factor": 5, "use_factor": 1},
)
NUM_TOP_FRACTIONS = (0.0001, 0.001, 0.01, 0.05, 0.1, 0.3)


def default_params(scale: float = 1.0) -> WorkloadParams:
    return WorkloadParams(pr_update=0.0).scaled(scale)


def run(
    scale: float = 1.0,
    num_retrieves: Optional[int] = None,
    params: Optional[WorkloadParams] = None,
    jobs: int = 1,
    point_cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExperimentResult:
    """One row per NumTop with the DFSCLUST/BFS cost ratio per config."""
    base = params or default_params(scale)
    num_tops = scaled_num_tops(base, NUM_TOP_FRACTIONS)
    points = [
        SweepPoint(
            params=base.replace(num_top=num_top, **config),
            strategy=name,
            num_retrieves=num_retrieves,
            cold_retrieves=True,
        )
        for num_top in num_tops
        for config in CONFIGS
        for name in ("DFSCLUST", "BFS")
    ]
    reports = iter(run_sweep(points, jobs=jobs, cache=point_cache, policy=policy))

    rows: List[List] = []
    for num_top in num_tops:
        row: List = [num_top]
        for _ in CONFIGS:
            clust = next(reports)
            bfs = next(reports)
            ratio = (
                clust.avg_io_per_retrieve / bfs.avg_io_per_retrieve
                if bfs.avg_io_per_retrieve
                else float("inf")
            )
            row.append(round(ratio, 2))
        rows.append(row)

    return ExperimentResult(
        name="fig7",
        title=(
            "Figure 7: Cost(DFSCLUST)/Cost(BFS) vs NumTop at ShareFactor=5 "
            "(|ParentRel|=%d)" % base.num_parents
        ),
        headers=["NumTop", "overlap=1,use=5", "overlap=5,use=1"],
        rows=rows,
    )
