"""Workload advisor: the practical reading of Figure 4.

The paper's decision surface tells a designer which representation
strategy is cheapest given three workload characteristics — how shared
subobjects are (ShareFactor = UseFactor x OverlapFactor), how many
objects a query touches (NumTop), and the update frequency (Pr(UPDATE)).
:func:`recommend` turns that into an executable tool: it builds a scaled
synthetic database with the described characteristics, races the
candidate strategies on a mixed sequence (with a warm-up so caching is
judged at steady state) through
:func:`~repro.experiments.runner.run_point`, the path every sweep point
takes, and returns the measured ranking.

    >>> from repro.advisor import WorkloadSketch, recommend
    >>> sketch = WorkloadSketch(use_factor=1, num_top_fraction=0.005,
    ...                         pr_update=0.3)
    >>> recommend(sketch).winner
    'DFSCLUST'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.workload.params import WorkloadParams

DEFAULT_CANDIDATES = ("BFS", "DFSCACHE", "DFSCLUST")


@dataclass(frozen=True)
class WorkloadSketch:
    """A designer's description of the expected workload."""

    #: Expected number of objects sharing a whole unit of subobjects.
    use_factor: int = 5
    #: Expected number of units sharing a subobject (random sharing).
    overlap_factor: int = 1
    #: Fraction of the object population a typical query touches.
    num_top_fraction: float = 0.01
    #: Fraction of operations that are updates.
    pr_update: float = 0.0

    def validate(self) -> None:
        if self.use_factor < 1 or self.overlap_factor < 1:
            raise WorkloadError("sharing factors must be >= 1")
        if not 0 < self.num_top_fraction <= 1:
            raise WorkloadError("num_top_fraction must be in (0, 1]")
        if not 0 <= self.pr_update <= 0.99:
            raise WorkloadError("pr_update must be in [0, 0.99]")

    @property
    def share_factor(self) -> int:
        return self.use_factor * self.overlap_factor


@dataclass
class Recommendation:
    """The measured ranking for one sketch."""

    sketch: WorkloadSketch
    costs: Dict[str, float]
    params: WorkloadParams

    @property
    def winner(self) -> str:
        return min(self.costs, key=lambda name: self.costs[name])

    def ranking(self) -> List[Tuple[str, float]]:
        return sorted(self.costs.items(), key=lambda item: item[1])

    def __str__(self) -> str:
        parts = ", ".join(
            "%s=%.1f" % (name, cost) for name, cost in self.ranking()
        )
        return "winner=%s (%s)" % (self.winner, parts)


def recommend(
    sketch: WorkloadSketch,
    candidates: Sequence[str] = DEFAULT_CANDIDATES,
    scale: float = 0.1,
    num_retrieves: int = 40,
    seed: int = 42,
    base_params: Optional[WorkloadParams] = None,
) -> Recommendation:
    """Race ``candidates`` on a synthetic database matching ``sketch``.

    The first quarter of the sequence is an unmeasured warm-up.  The
    returned :class:`Recommendation` carries the measured average I/O per
    retrieve for every candidate.
    """
    from repro.experiments.runner import run_point, scaled_num_tops

    sketch.validate()
    if not candidates:
        raise WorkloadError("need at least one candidate strategy")
    params = (base_params or WorkloadParams(seed=seed)).replace(
        use_factor=sketch.use_factor,
        overlap_factor=sketch.overlap_factor,
    )
    if base_params is None:
        params = params.scaled(scale)
    params = params.replace(
        num_top=scaled_num_tops(params, [sketch.num_top_fraction])[0],
        pr_update=sketch.pr_update,
        num_queries=num_retrieves,
    )

    costs: Dict[str, float] = {}
    for name in candidates:
        report = run_point(
            params, name, num_retrieves=num_retrieves, warmup_fraction=0.25
        )
        costs[name] = report.avg_io_per_retrieve
    return Recommendation(sketch=sketch, costs=costs, params=params)
