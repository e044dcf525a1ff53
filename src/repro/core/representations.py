"""The representation matrix (Section 2, Figure 1 of the paper).

Two axes classify complex-object representations:

* the **primary** representation of the object-subobject relationship —
  procedural (a query that evaluates to the subobjects), OID lists, or
  value-based (subobjects stored inline);
* the **cached** representation — nothing, subobject OIDs, or subobject
  values, precomputed and kept on disk.

Figure 1 shades the combinations that "do not make sense":

* a value-based primary already contains everything — caching adds nothing;
* caching OIDs when the primary representation *is* OIDs adds nothing.

Figure 2 adds the third axis studied in this paper (clustering, for the
OID primary) and names the applicable query-processing strategies;
:func:`strategies_for` reproduces that mapping.  Section 3.4 rejects
caching combined with clustering, which :func:`is_valid_point` enforces.

The experiments measure two primary columns: OID (the paper's study,
DFS through SMART) and procedural (the ``PROC-*`` strategies, experiment
C2).  The value-based column appears here as a matrix cell only.
"""

from __future__ import annotations

import enum
from typing import List, Tuple

from repro.errors import RepresentationError


class PrimaryRep(enum.Enum):
    """Primary representation alternatives (Section 2.1)."""

    PROCEDURAL = "procedural"
    OID = "oid"
    VALUE = "value"


class CachedRep(enum.Enum):
    """Cached representation alternatives (Section 2.3)."""

    NONE = "none"
    OIDS = "oids"
    VALUES = "values"


#: The unshaded cells of Figure 1.
VALID_MATRIX_CELLS = frozenset(
    [
        (PrimaryRep.PROCEDURAL, CachedRep.NONE),
        (PrimaryRep.PROCEDURAL, CachedRep.OIDS),
        (PrimaryRep.PROCEDURAL, CachedRep.VALUES),
        (PrimaryRep.OID, CachedRep.NONE),
        (PrimaryRep.OID, CachedRep.VALUES),
        (PrimaryRep.VALUE, CachedRep.NONE),
    ]
)


def is_valid_cell(primary: PrimaryRep, cached: CachedRep) -> bool:
    """Whether (primary, cached) is an unshaded cell of Figure 1."""
    return (primary, cached) in VALID_MATRIX_CELLS


def is_valid_point(
    primary: PrimaryRep, cached: CachedRep, clustered: bool = False
) -> bool:
    """Figure 1 validity extended with the clustering axis of Figure 2.

    Clustering is a physical-placement choice for the OID representation;
    combining it with caching "does not make sense" (Section 3.4) because
    both spend the same budget — fewer page accesses per subobject fetch —
    in conflicting ways.
    """
    if not is_valid_cell(primary, cached):
        return False
    if clustered:
        if primary is not PrimaryRep.OID:
            return False
        if cached is not CachedRep.NONE:
            return False
    return True


def strategies_for(cached: CachedRep, clustered: bool) -> List[str]:
    """The Figure 2 mapping from OID-representation points to strategies."""
    if not is_valid_point(PrimaryRep.OID, cached, clustered):
        raise RepresentationError(
            "invalid OID-representation point: cached=%s clustered=%s"
            % (cached.value, clustered)
        )
    if clustered:
        return ["DFSCLUST"]
    if cached is CachedRep.VALUES:
        return ["DFSCACHE", "SMART"]
    return ["DFS", "BFS", "BFSNODUP"]


def matrix_summary() -> List[Tuple[str, str, bool]]:
    """All nine cells with their validity — the textual Figure 1."""
    out = []
    for primary in PrimaryRep:
        for cached in CachedRep:
            out.append((primary.value, cached.value, is_valid_cell(primary, cached)))
    return out
