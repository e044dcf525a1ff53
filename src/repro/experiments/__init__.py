"""One experiment module per figure/section of the paper's evaluation.

========== ===================================================== =========
module     reproduces                                            bench
========== ===================================================== =========
fig3       Figure 3 (DFS vs BFS vs BFSNODUP over NumTop)         test_fig3
fig4       Figure 4 (best-strategy regions in the 3-D cuboid)    test_fig4
fig5       Figure 5 (ParCost/ChildCost vs ShareFactor)           test_fig5
fig7       Figure 7 (OverlapFactor's effect on clustering)       test_fig7
sec62      Section 6.2 (NumChildRel sweep)                       test_sec62
smart      Section 5.3 (SMART on a mixed workload)               test_smart
deep       C1 claim: multi-level (transitive) exploration        test_deep
matrix     C2 claim: comparison across matrix columns            test_matrix
opt        C3 claim: per-query optimal plan selection            test_opt
ablations  A1 cache size, A2 buffer size, A3 inside vs outside   test_abl*
========== ===================================================== =========

Each module exposes ``run(scale=..., num_retrieves=...) ->
ExperimentResult``; ``repro report --only NAME`` prints its table.
"""

from repro.experiments import ablations, deep, fig3, fig4, fig5, fig7, matrix, opt, sec62, smart
from repro.experiments.runner import (
    DatabaseCache,
    ExperimentResult,
    adaptive_queries,
    run_point,
    scaled_num_tops,
)

__all__ = [
    "ablations",
    "deep",
    "fig3",
    "fig4",
    "fig5",
    "fig7",
    "matrix",
    "opt",
    "sec62",
    "smart",
    "DatabaseCache",
    "ExperimentResult",
    "adaptive_queries",
    "run_point",
    "scaled_num_tops",
]
