"""Strategy interface and registry.

Figure 2 of the paper maps the four OID-representation points (caching x
clustering) onto five query-processing strategies, and Section 5.3 adds
SMART.  Every strategy implements the same two operations — a multiple-dot
retrieve and an in-place subobject update — against a
:class:`~repro.core.database.ComplexObjectDB`, attributing its page I/O to
the :data:`parent <repro.core.measure.PARENT_PHASE>` /
:data:`child <repro.core.measure.CHILD_PHASE>` /
:data:`update <repro.core.measure.UPDATE_PHASE>` phases of a
:class:`~repro.core.measure.CostMeter`.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Type

from repro.core.database import ComplexObjectDB
from repro.core.measure import CostMeter, NullMeter, UPDATE_PHASE
from repro.core.queries import RetrieveQuery, UpdateQuery
from repro.errors import QueryError


class Strategy(abc.ABC):
    """A query-processing strategy for the OID representation."""

    #: Registry key and display name ("DFS", "BFS", ...).
    name: str = "?"
    #: Whether the strategy reads/maintains a unit cache.
    uses_cache: bool = False
    #: Whether that cache is the inside (per-object) one of the A3
    #: ablation instead of the outside Cache relation.
    uses_inside_cache: bool = False
    #: Whether the strategy runs against ClusterRel instead of
    #: ParentRel/ChildRel.
    uses_clustering: bool = False
    #: Whether the strategy executes the parents' stored queries (the
    #: procedural primary representation).
    uses_procedures: bool = False

    def database_shape(
        self, cache: Optional[bool] = None, procedural: bool = False
    ) -> Dict[str, bool]:
        """``build_database`` keywords for the database this strategy needs.

        ``cache``/``procedural`` force a facility the strategy itself
        does not need (the matrix experiment runs every column against
        one procedural, cache-enabled database).
        """
        if cache is None:
            cache = self.uses_cache and not self.uses_inside_cache
        return {
            "clustering": self.uses_clustering,
            "cache": cache,
            "procedural": procedural or self.uses_procedures,
        }

    def check_database(self, db: ComplexObjectDB) -> None:
        """Raise QueryError unless ``db`` has what this strategy needs."""
        if self.uses_procedures and db.procedures is None:
            raise QueryError(
                "strategy %s needs a procedural database "
                "(build_database(..., procedural=True))" % self.name
            )
        if self.uses_inside_cache:
            if db.inside_cache is None:
                raise QueryError(
                    "strategy %s needs an inside-cache-enabled database" % self.name
                )
        elif self.uses_cache and db.cache is None:
            raise QueryError("strategy %s needs a cache-enabled database" % self.name)
        if self.uses_clustering and db.cluster is None:
            raise QueryError(
                "strategy %s needs a clustering-enabled database" % self.name
            )

    @abc.abstractmethod
    def retrieve(
        self,
        db: ComplexObjectDB,
        query: RetrieveQuery,
        meter: Optional[CostMeter] = None,
    ) -> List[Any]:
        """Execute the retrieve, returning the list of attribute values."""

    def update(
        self,
        db: ComplexObjectDB,
        update: UpdateQuery,
        meter: Optional[CostMeter] = None,
    ) -> None:
        """Apply an update the way this representation requires.

        Non-clustered strategies update ChildRel in place; clustered ones
        update ClusterRel.  Cache-maintaining strategies additionally pay
        the I-lock invalidations.
        """
        meter = meter or NullMeter()
        with meter.phase(UPDATE_PHASE):
            db.apply_update(
                update.refs,
                update.value,
                through_cluster=self.uses_clustering,
                invalidate_cache=self.uses_cache,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<strategy %s>" % self.name


#: All registered strategies by name; populated by @register.
REGISTRY: Dict[str, Type[Strategy]] = {}


def register(cls: Type[Strategy]) -> Type[Strategy]:
    """Class decorator adding a strategy to :data:`REGISTRY`."""
    if not cls.name or cls.name == "?":
        raise ValueError("strategy class %r has no name" % cls)
    if cls.name in REGISTRY:
        raise ValueError("duplicate strategy name %r" % cls.name)
    REGISTRY[cls.name] = cls
    return cls


def make_strategy(name: str, **kwargs: Any) -> Strategy:
    """Instantiate a registered strategy by name."""
    try:
        cls = REGISTRY[name]
    except KeyError:
        raise QueryError(
            "unknown strategy %r (known: %s)" % (name, ", ".join(sorted(REGISTRY)))
        ) from None
    return cls(**kwargs)
