"""Claim check C3: per-query plan selection (Section 4's "optimal plan").

The paper's driver generated "an optimal plan for each query in the
sequence".  The OPT strategy reproduces that optimizer step with a
cost model over catalog statistics; this experiment validates it: across
the NumTop range, OPT should track min(DFS, BFS) — picking DFS below the
Figure 3 crossover and BFS above it — without ever paying more than a
small planning error.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.pool import PointCache, RetryPolicy, SweepPoint, run_sweep
from repro.experiments.runner import ExperimentResult, scaled_num_tops
from repro.workload.params import WorkloadParams

NUM_TOP_FRACTIONS = (0.0001, 0.001, 0.01, 0.05, 0.2, 1.0)


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
    """One row per NumTop: DFS, BFS, OPT costs and OPT's regret."""
    base = params or default_params(scale)
    num_tops = scaled_num_tops(base, NUM_TOP_FRACTIONS)
    points = [
        SweepPoint(
            params=base.replace(num_top=num_top),
            strategy=name,
            num_retrieves=num_retrieves,
        )
        for num_top in num_tops
        for name in ("DFS", "BFS", "OPT")
    ]
    reports = iter(run_sweep(points, jobs=jobs, cache=point_cache, policy=policy))
    rows: List[List] = []
    for num_top in num_tops:
        costs = {}
        for name in ("DFS", "BFS", "OPT"):
            costs[name] = next(reports).avg_io_per_retrieve
        best = min(costs["DFS"], costs["BFS"])
        regret = (costs["OPT"] - best) / best if best else 0.0
        rows.append(
            [
                num_top,
                round(costs["DFS"], 1),
                round(costs["BFS"], 1),
                round(costs["OPT"], 1),
                round(regret, 3),
            ]
        )
    return ExperimentResult(
        name="opt",
        title=(
            "C3: cost-based plan choice vs NumTop (|ParentRel|=%d)"
            % base.num_parents
        ),
        headers=["NumTop", "DFS", "BFS", "OPT", "opt_regret"],
        rows=rows,
    )


def max_regret(result: ExperimentResult) -> float:
    return max(result.column("opt_regret"))
