"""repro — reproduction of Jhingran & Stonebraker (ICDE 1990),
"Alternatives in Complex Object Representation: A Performance Perspective".

The package provides:

* a page-level relational storage engine (:mod:`repro.storage`) standing
  in for the commercial INGRES the paper simulated on;
* relational operators (:mod:`repro.query`);
* the paper's contribution (:mod:`repro.core`): the representation
  matrix, OID-based complex objects, the outside unit cache with I-lock
  invalidation, clustering, and the six query-processing strategies;
* the experimental workload and measurement driver
  (:mod:`repro.workload`);
* one experiment module per figure/table (:mod:`repro.experiments`).

Quickstart::

    from repro import WorkloadParams, measure_strategy

    params = WorkloadParams().scaled(0.1).replace(num_top=50, num_queries=50)
    report = measure_strategy(params, "BFS")
    print(report.avg_io_per_retrieve)
"""

from repro.advisor import Recommendation, WorkloadSketch, recommend
from repro.core import (
    CachedRep,
    explain,
    ComplexObjectDB,
    CostMeter,
    Oid,
    PrimaryRep,
    REGISTRY,
    RetrieveQuery,
    Strategy,
    UnitCache,
    UpdateQuery,
    is_valid_cell,
    is_valid_point,
    make_strategy,
    strategies_for,
)
from repro.storage import Catalog
from repro.workload import (
    CostReport,
    WorkloadParams,
    build_database,
    generate_sequence,
    measure_strategy,
    run_sequence,
)

__version__ = "1.0.0"

__all__ = [
    "Recommendation",
    "WorkloadSketch",
    "recommend",
    "CachedRep",
    "explain",
    "ComplexObjectDB",
    "CostMeter",
    "Oid",
    "PrimaryRep",
    "REGISTRY",
    "RetrieveQuery",
    "Strategy",
    "UnitCache",
    "UpdateQuery",
    "is_valid_cell",
    "is_valid_point",
    "make_strategy",
    "strategies_for",
    "Catalog",
    "CostReport",
    "WorkloadParams",
    "build_database",
    "generate_sequence",
    "measure_strategy",
    "run_sequence",
    "__version__",
]
