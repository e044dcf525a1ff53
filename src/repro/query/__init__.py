"""Relational query-processing operators.

The strategies of Section 3 are assembled from these pieces:

* :mod:`repro.query.temp` — temporary relations (the ``temp`` of the
  breadth-first strategies);
* :mod:`repro.query.sort` — external merge sort with real run files;
* :mod:`repro.query.join` — merge(-probe) join (flat keys or a sorted
  temporary) and iterative substitution (nested-loop) join against
  B-tree inners.
"""

from repro.query.join import (
    iterative_substitution_join,
    join_sorted_temp,
    merge_probe_join,
)
from repro.query.sort import external_sort
from repro.query.temp import TempRelation, make_temp

__all__ = [
    "iterative_substitution_join",
    "join_sorted_temp",
    "merge_probe_join",
    "external_sort",
    "TempRelation",
    "make_temp",
]
