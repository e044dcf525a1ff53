"""Section 6.2: subobjects drawn from several child relations.

NumChildRel varies while everything else stays fixed.  Expected shape:

* DFS-family strategies (and hence caching/clustering) are essentially
  flat in NumChildRel;
* BFS runs one temporary + join per referenced child relation, but the
  per-relation cardinalities and temporaries shrink in step, "almost
  balancing out" — BFS degrades only as NumChildRel approaches NumTop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.pool import PointCache, RetryPolicy, SweepPoint, run_sweep
from repro.experiments.runner import ExperimentResult
from repro.workload.params import WorkloadParams

STRATEGIES = ("DFS", "BFS", "DFSCACHE")
NUM_CHILD_RELS = (1, 2, 5, 10, 20)
#: NumTop as a fraction of |ParentRel| (200/10000 in the paper's spirit).
NUM_TOP_FRACTION = 0.02


def default_params(scale: float = 1.0) -> WorkloadParams:
    return WorkloadParams(use_factor=5, overlap_factor=1, pr_update=0.0).scaled(scale)


def run(
    scale: float = 1.0,
    num_retrieves: Optional[int] = None,
    num_child_rels: Sequence[int] = NUM_CHILD_RELS,
    params: Optional[WorkloadParams] = None,
    jobs: int = 1,
    point_cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExperimentResult:
    """One row per NumChildRel with each strategy's average cost."""
    base = params or default_params(scale)
    num_top = max(1, round(base.num_parents * NUM_TOP_FRACTION))
    points = [
        SweepPoint(
            params=base.replace(num_child_rels=ncr, num_top=num_top),
            strategy=name,
            num_retrieves=num_retrieves,
        )
        for ncr in num_child_rels
        for name in STRATEGIES
    ]
    reports = iter(run_sweep(points, jobs=jobs, cache=point_cache, policy=policy))

    rows: List[List] = []
    for ncr in num_child_rels:
        row: List = [ncr]
        for _ in STRATEGIES:
            row.append(round(next(reports).avg_io_per_retrieve, 1))
        rows.append(row)

    return ExperimentResult(
        name="sec62",
        title=(
            "Section 6.2: avg I/O per query vs NumChildRel at NumTop=%d "
            "(|ParentRel|=%d)" % (num_top, base.num_parents)
        ),
        headers=["NumChildRel"] + list(STRATEGIES),
        rows=rows,
    )


def max_relative_spread(result: ExperimentResult, strategy: str) -> float:
    """(max-min)/min of one strategy's cost across the sweep."""
    costs = result.column(strategy)
    low = min(costs)
    return (max(costs) - low) / low if low else 0.0
