"""The paper's contribution: complex-object representations over OIDs.

Public surface:

* :class:`~repro.core.oid.Oid` — relation id + primary key identifiers;
* :mod:`repro.core.representations` — the representation matrix (Figures 1
  and 2);
* :class:`~repro.core.database.ComplexObjectDB` — the experimental
  ParentRel/ChildRel database;
* :mod:`repro.core.cache` — the outside unit cache with I-lock
  invalidation;
* :mod:`repro.core.clustering` — ClusterRel and the clustering assignment;
* :mod:`repro.core.strategies` — DFS, BFS, BFSNODUP, DFSCACHE, DFSCLUST
  and SMART;
* :class:`~repro.core.measure.CostMeter` — phase-attributed I/O metering.
"""

from repro.core.cache import ILockTable, UnitCache, inside_hashkey, unit_hashkey
from repro.core.clustering import ClusterAssignment, ClusterStore, assign_clusters
from repro.core.database import ComplexObjectDB, Unit
from repro.core.explain import explain
from repro.core.measure import (
    CHILD_PHASE,
    CostMeter,
    NullMeter,
    PARENT_PHASE,
    UPDATE_PHASE,
)
from repro.core.oid import Oid
from repro.core.queries import RETRIEVE_ATTRS, RetrieveQuery, UpdateQuery
from repro.core.representations import (
    CachedRep,
    PrimaryRep,
    is_valid_cell,
    is_valid_point,
    matrix_summary,
    strategies_for,
)
from repro.core.strategies import REGISTRY, Strategy, make_strategy

__all__ = [
    "ILockTable",
    "UnitCache",
    "inside_hashkey",
    "unit_hashkey",
    "ClusterAssignment",
    "ClusterStore",
    "assign_clusters",
    "ComplexObjectDB",
    "Unit",
    "explain",
    "CHILD_PHASE",
    "CostMeter",
    "NullMeter",
    "PARENT_PHASE",
    "UPDATE_PHASE",
    "Oid",
    "RETRIEVE_ATTRS",
    "RetrieveQuery",
    "UpdateQuery",
    "CachedRep",
    "PrimaryRep",
    "is_valid_cell",
    "is_valid_point",
    "matrix_summary",
    "strategies_for",
    "REGISTRY",
    "Strategy",
    "make_strategy",
]
