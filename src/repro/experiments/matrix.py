"""Claim check C2: comparing representations ACROSS the matrix columns.

Section 2.4 of the paper promises that "in a future study we will ...
compare points across the columns".  With both the procedural column
(:mod:`repro.core.strategies.procedural`) and the OID column implemented
over the *same* logical database, this experiment runs that comparison:

* PROC-EXEC          — procedural, no cache (execute the stored query);
* PROC-CACHE-OIDS    — procedural with cached OIDs;
* PROC-CACHE-VALUES  — procedural with cached values;
* BFS                — OID lists, no cache;
* DFSCACHE           — OID lists with cached values.

Expected structure (the framework's Section 2.3 reading):

* each cached representation dominates the point above it in its column:
  values <= OIDs <= nothing, at low update rates;
* the OID primary representation dominates the procedural one when
  nothing is cached (knowing *identities* beats re-deriving them);
* with values cached and few updates, the two columns converge — the
  cache serves both, which is exactly why the paper studies caching as
  an axis orthogonal to the primary representation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.pool import PointCache, RetryPolicy, SweepPoint, run_sweep
from repro.experiments.runner import ExperimentResult
from repro.workload.params import WorkloadParams

STRATEGIES = (
    "PROC-EXEC",
    "PROC-CACHE-OIDS",
    "PROC-CACHE-VALUES",
    "BFS",
    "DFSCACHE",
)
PR_UPDATES = (0.0, 0.3)


def default_params(scale: float = 1.0) -> WorkloadParams:
    # UseFactor 10: SizeCache (10% of the database) covers the distinct
    # units, so caching is evaluated at an adequate cache size — the
    # regime [JHIN88] draws its conclusions in.  An undersized cache
    # makes every strategy degenerate to PROC-EXEC: one uncached
    # procedure per batch already costs the full relation scan.
    return WorkloadParams(use_factor=10, overlap_factor=1).scaled(scale)


def run(
    scale: float = 1.0,
    num_retrieves: Optional[int] = None,
    pr_updates: Sequence[float] = PR_UPDATES,
    params: Optional[WorkloadParams] = None,
    jobs: int = 1,
    point_cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExperimentResult:
    """One row per Pr(UPDATE) with every representation point's cost."""
    base = params or default_params(scale)
    # Small queries (the cached representations' home turf, cf. Figure 4)
    # against a relation whose scan dwarfs a handful of random fetches.
    base = base.replace(num_top=max(1, base.num_parents // 400))
    retrieves = num_retrieves if num_retrieves is not None else 40
    # Long unmeasured warm-up: steady-state cache coverage is the regime
    # [JHIN88] reports; a cold cache degenerates everything to PROC-EXEC.
    # Coverage after W queries is ~ 1 - exp(-W * NumTop / NumUnits), so
    # W = 3 * NumUnits / NumTop reaches ~95%.
    warmup = max(60, 2 * retrieves, 3 * base.num_units // base.num_top)

    # Every representation point runs against the same cache-enabled,
    # procedural database (db_cache=True forces the cache facility on
    # even for the non-caching strategies, matching the shared-database
    # comparison the docstring describes).
    points = [
        SweepPoint(
            params=base.replace(pr_update=pr_update),
            strategy=name,
            num_retrieves=retrieves + warmup,
            warmup=warmup,
            db_cache=True,
            db_procedural=True,
        )
        for pr_update in pr_updates
        for name in STRATEGIES
    ]
    reports = iter(run_sweep(points, jobs=jobs, cache=point_cache, policy=policy))

    rows: List[List] = []
    for pr_update in pr_updates:
        row: List = [pr_update]
        for _ in STRATEGIES:
            row.append(round(next(reports).avg_io_per_retrieve, 1))
        rows.append(row)

    return ExperimentResult(
        name="matrix",
        title=(
            "C2: representation-matrix comparison at NumTop=%d "
            "(|ParentRel|=%d, ShareFactor=%d)"
            % (base.num_top, base.num_parents, base.share_factor)
        ),
        headers=["Pr(UPDATE)"] + list(STRATEGIES),
        rows=rows,
    )
