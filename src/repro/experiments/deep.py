"""Claim check C1: multi-level exploration and duplicate elimination.

Section 5.1 of the paper: "It is clear that the benefits of BFSNODUP
will increase with an increase in the number of levels explored.  But
our experiments have shown that the benefit so obtained is marginal at
best."  Section 3 notes the queries generalise to transitive closure.

This experiment sweeps query depth over a shared multi-level hierarchy
(UseFactor 5 at every level, so the number of *paths* grows ~5x faster
than the number of distinct objects per level) and reports average I/O
for recursive DFS, iterative BFS, and BFS with per-level duplicate
elimination.  Expected shape:

* DFS explodes with depth (it re-expands every duplicate path);
* BFSNODUP's advantage over plain BFS grows with depth — and is small at
  depth 1, where the paper measured it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.pool import PointCache, RetryPolicy, SweepPoint, run_sweep
from repro.experiments.runner import ExperimentResult
from repro.workload.deepgen import DeepParams

DEPTHS = (1, 2, 3)

#: Traversal runners in row order (resolved in the sweep executor).
RUNNERS = ("dfs", "bfs", "nodup")


def default_params(scale: float = 1.0) -> DeepParams:
    num_roots = max(200, round(20000 * scale))
    return DeepParams(num_roots=num_roots, depth=max(DEPTHS), use_factor=5)


def run(
    scale: float = 1.0,
    num_retrieves: int = 5,
    span: int = 4,
    depths: Sequence[int] = DEPTHS,
    params: Optional[DeepParams] = None,
    jobs: int = 1,
    point_cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExperimentResult:
    """One row per query depth: DFS, BFS, BFSNODUP average I/O."""
    base = params or default_params(scale)
    points = [
        SweepPoint(
            kind="deep",
            deep_params=base,
            depth=depth,
            span=span,
            queries=num_retrieves,
            runner=runner,
        )
        for depth in depths
        for runner in RUNNERS
    ]
    results = iter(run_sweep(points, jobs=jobs, cache=point_cache, policy=policy))

    rows: List[List] = []
    for depth in depths:
        dfs = next(results)
        bfs = next(results)
        nodup = next(results)
        gain = (bfs - nodup) / bfs if bfs else 0.0
        rows.append(
            [depth, round(dfs, 1), round(bfs, 1), round(nodup, 1),
             round(gain, 3)]
        )

    return ExperimentResult(
        name="deep",
        title=(
            "C1: transitive queries over %d-level hierarchy "
            "(roots=%d, UseFactor=%d, %d roots per query)"
            % (base.depth + 1, base.num_roots, base.use_factor, span)
        ),
        headers=["depth", "DFS", "BFS", "BFSNODUP", "nodup_gain"],
        rows=rows,
    )
