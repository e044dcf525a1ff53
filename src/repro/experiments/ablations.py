"""Ablations of the design choices DESIGN.md calls out.

A1 — cache size (Section 4, parameter [3]): DFSCACHE's cost should fall
as SizeCache grows (more units served without materialisation), with
diminishing returns once every live unit fits.

A2 — buffer pool (Section 4 setup): every strategy gets cheaper with a
larger buffer, but the *ordering* at a parameter point is preserved —
the paper's conclusions are not an artifact of the 100-page buffer.

A3 — inside vs outside caching (Section 3.2 / [JHIN88]): with shared
units and a bounded cache, outside caching dominates inside caching, and
the gap widens with UseFactor (an outside cache entry serves UseFactor
parents; inside entries serve one each).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.pool import PointCache, RetryPolicy, SweepPoint, run_sweep
from repro.experiments.runner import ExperimentResult
from repro.workload.params import WorkloadParams


def default_params(scale: float = 1.0) -> WorkloadParams:
    return WorkloadParams(use_factor=5, overlap_factor=1).scaled(scale)


# ----------------------------------------------------------------------
# A1: cache size
# ----------------------------------------------------------------------
CACHE_FRACTIONS = (0.02, 0.05, 0.1, 0.25, 0.5, 1.0)


def run_cache_size(
    scale: float = 1.0,
    num_retrieves: Optional[int] = None,
    params: Optional[WorkloadParams] = None,
    jobs: int = 1,
    point_cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExperimentResult:
    """DFSCACHE cost vs SizeCache (as a fraction of NumUnits)."""
    base = params or default_params(scale)
    base = base.replace(num_top=max(1, base.num_parents // 100), pr_update=0.0)
    sizes = [max(1, round(base.num_units * f)) for f in CACHE_FRACTIONS]
    points = [
        SweepPoint(
            params=base.replace(size_cache=size),
            strategy="DFSCACHE",
            num_retrieves=num_retrieves,
        )
        for size in sizes
    ]
    reports = run_sweep(points, jobs=jobs, cache=point_cache, policy=policy)
    rows: List[List] = []
    for fraction, size_cache, report in zip(CACHE_FRACTIONS, sizes, reports):
        rows.append(
            [
                size_cache,
                round(fraction, 2),
                round(report.avg_io_per_retrieve, 1),
                round(report.cache_stats["hit_rate"], 3),
            ]
        )
    return ExperimentResult(
        name="ablation-cache-size",
        title="A1: DFSCACHE cost vs SizeCache (NumUnits=%d)" % base.num_units,
        headers=["SizeCache", "fraction_of_units", "DFSCACHE", "hit_rate"],
        rows=rows,
    )


# ----------------------------------------------------------------------
# A2: buffer pool size
# ----------------------------------------------------------------------
BUFFER_SIZES = (25, 50, 100, 200, 400)


def run_buffer_size(
    scale: float = 1.0,
    num_retrieves: Optional[int] = None,
    buffer_sizes: Sequence[int] = BUFFER_SIZES,
    params: Optional[WorkloadParams] = None,
    jobs: int = 1,
    point_cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExperimentResult:
    """DFS/BFS cost vs buffer-pool pages (ordering should be stable)."""
    base = params or default_params(scale)
    base = base.replace(num_top=max(1, base.num_parents // 20), pr_update=0.0)
    cells = [
        base.replace(buffer_pages=max(8, round(pages * scale)))
        for pages in buffer_sizes
    ]
    points = [
        SweepPoint(params=cell, strategy=name, num_retrieves=num_retrieves)
        for cell in cells
        for name in ("DFS", "BFS")
    ]
    reports = iter(run_sweep(points, jobs=jobs, cache=point_cache, policy=policy))
    rows: List[List] = []
    for cell in cells:
        row: List = [cell.buffer_pages]
        for _ in ("DFS", "BFS"):
            row.append(round(next(reports).avg_io_per_retrieve, 1))
        rows.append(row)
    return ExperimentResult(
        name="ablation-buffer",
        title="A2: cost vs buffer pages at NumTop=%d" % base.num_top,
        headers=["buffer_pages", "DFS", "BFS"],
        rows=rows,
    )


# ----------------------------------------------------------------------
# A3: inside vs outside caching
# ----------------------------------------------------------------------
A3_USE_FACTORS = (1, 2, 5, 10)


def run_inside_outside(
    scale: float = 1.0,
    num_retrieves: Optional[int] = None,
    use_factors: Sequence[int] = A3_USE_FACTORS,
    params: Optional[WorkloadParams] = None,
    jobs: int = 1,
    point_cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExperimentResult:
    """Outside vs inside caching as sharing (UseFactor) grows."""
    base = params or default_params(scale)
    base = base.replace(num_top=max(1, base.num_parents // 100), pr_update=0.0)
    points = [
        SweepPoint(
            params=base.replace(use_factor=use_factor),
            strategy=name,
            num_retrieves=num_retrieves,
        )
        for use_factor in use_factors
        for name in ("DFSCACHE", "DFSCACHE-INSIDE")
    ]
    reports = iter(run_sweep(points, jobs=jobs, cache=point_cache, policy=policy))
    rows: List[List] = []
    for use_factor in use_factors:
        outside = next(reports)
        inside = next(reports)
        rows.append(
            [
                use_factor,
                round(outside.avg_io_per_retrieve, 1),
                round(inside.avg_io_per_retrieve, 1),
            ]
        )
    return ExperimentResult(
        name="ablation-inside-outside",
        title="A3: outside vs inside caching (SizeCache=%d)" % base.size_cache,
        headers=["UseFactor", "outside(DFSCACHE)", "inside"],
        rows=rows,
    )


# ----------------------------------------------------------------------
# A4: buffer replacement policy
# ----------------------------------------------------------------------
A4_STRATEGIES = ("DFS", "BFS", "DFSCLUST")


def run_buffer_policy(
    scale: float = 1.0,
    num_retrieves: Optional[int] = None,
    params: Optional[WorkloadParams] = None,
    jobs: int = 1,
    point_cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExperimentResult:
    """LRU vs clock replacement: the strategy ordering must not flip."""
    base = params or default_params(scale)
    base = base.replace(num_top=max(1, base.num_parents // 50), pr_update=0.0)
    points = [
        SweepPoint(
            params=base.replace(buffer_policy=replacement),
            strategy=name,
            num_retrieves=num_retrieves,
        )
        for replacement in ("lru", "clock")
        for name in A4_STRATEGIES
    ]
    reports = iter(run_sweep(points, jobs=jobs, cache=point_cache, policy=policy))
    rows: List[List] = []
    for replacement in ("lru", "clock"):
        row: List = [replacement]
        for _ in A4_STRATEGIES:
            row.append(round(next(reports).avg_io_per_retrieve, 1))
        rows.append(row)
    return ExperimentResult(
        name="ablation-buffer-policy",
        title="A4: replacement policy at NumTop=%d" % base.num_top,
        headers=["policy"] + list(A4_STRATEGIES),
        rows=rows,
    )
