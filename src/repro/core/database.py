"""The experimental complex-object database.

This is the database of Section 4 of the paper:

* ``ParentRel(OID, ret1, ret2, ret3, dummy, children)`` — the complex
  objects, B-tree on OID, ~200-byte tuples;
* ``ChildRel[i](OID, ret1, ret2, ret3, dummy)`` — the subobjects, B-tree
  on OID, ~100-byte tuples, one relation per ``NumChildRel``;
* optionally ``ClusterRel`` (see :mod:`repro.core.clustering`);
* optionally ``Cache`` (see :mod:`repro.core.cache`).

OID convention: within an experimental database, ``Oid.rel`` is 0 for
ParentRel and ``i + 1`` for ``ChildRel[i]`` — a compact, deterministic
realisation of "relation identifier + primary key" (Section 2.2).

A :class:`ComplexObjectDB` is normally built by
:func:`repro.workload.generator.build_database`; the class itself only
offers the physical operations strategies compose: parent range scans,
random child fetches, update application, and cache/cluster lifecycles.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cache import UnitCache, unit_hashkey
from repro.core.clustering import ClusterAssignment, ClusterStore
from repro.core.oid import Oid
from repro.errors import KeyNotFoundError, WorkloadError
from repro.query.join import Projector, iterative_substitution_join
from repro.storage.btree import BTreeFile
from repro.storage.catalog import Catalog
from repro.storage.record import Schema

PARENT_REL_INDEX = 0

_OID_KEY = operator.attrgetter("key")


@dataclass(frozen=True)
class Unit:
    """A unit of subobjects (Section 3.2): one child relation, one OID set.

    ``parents`` are the ParentRel keys whose ``children`` attribute holds
    this unit; its expected length is UseFactor.
    """

    unit_id: int
    child_rel: int
    child_keys: Tuple[int, ...]
    parents: Tuple[int, ...]

    #: Immutable, so arena snapshots store one copy per process and every
    #: attached clone shares it (see :mod:`repro.storage.arena`) — the
    #: exact sharing :meth:`__deepcopy__` grants snapshot clones.
    ARENA_SHAREABLE = True

    def __deepcopy__(self, memo: dict) -> "Unit":
        # Frozen dataclass of ints and int tuples; snapshot clones share
        # the unit objects instead of re-copying every key tuple.
        return self

    @property
    def hashkey(self) -> int:
        return unit_hashkey(self.child_rel, self.child_keys)

    @property
    def size(self) -> int:
        return len(self.child_keys)


@dataclass(frozen=True)
class UnitDirectory:
    """The unit assignment of one database, fixed when it is built.

    ``units`` is every :class:`Unit` by ``unit_id``; ``unit_of_parent``
    maps a ParentRel key to its unit's id; ``procedures`` (procedural
    representation only, the matrix's left column) maps a ParentRel key
    to its stored retrieve query ``(child-relation index, ret2 low,
    ret2 high)``, see :mod:`repro.core.strategies.procedural`.  None of
    them is mutated after construction, so snapshot clones and arena
    attaches share the directory instead of copying it — the same
    treatment as :class:`Unit` — and clone cost does not grow with the
    number of complex objects.
    """

    units: Tuple[Unit, ...]
    unit_of_parent: Dict[int, int]
    procedures: Optional[Dict[int, Tuple[int, int, int]]] = None

    ARENA_SHAREABLE = True

    def __deepcopy__(self, memo: dict) -> "UnitDirectory":
        return self


class ComplexObjectDB:
    """ParentRel + ChildRel[s], with optional cache and clustering."""

    def __init__(
        self,
        catalog: Catalog,
        parent_rel: BTreeFile,
        child_rels: Sequence[BTreeFile],
        units: Sequence[Unit],
        unit_of_parent: Dict[int, int],
        procedures: Optional[Dict[int, Tuple[int, int, int]]] = None,
    ) -> None:
        if not child_rels:
            raise WorkloadError("a complex-object database needs >= 1 child relation")
        self.catalog = catalog
        self.parent_rel = parent_rel
        self.child_rels = list(child_rels)
        self._directory = UnitDirectory(
            tuple(units), dict(unit_of_parent), procedures
        )
        self.cluster: Optional[ClusterStore] = None
        self.cache: Optional[UnitCache] = None
        self.inside_cache: Optional[UnitCache] = None
        self._children_index = parent_rel.schema.field_index("children")
        self._parent_oid_index = parent_rel.schema.field_index("oid")

    # ------------------------------------------------------------------
    # shortcuts
    # ------------------------------------------------------------------
    @property
    def pool(self):
        return self.catalog.pool

    @property
    def disk(self):
        return self.catalog.disk

    @property
    def units(self) -> Tuple[Unit, ...]:
        return self._directory.units

    @property
    def unit_of_parent(self) -> Dict[int, int]:
        """ParentRel key -> unit id (read-only: shared by every clone)."""
        return self._directory.unit_of_parent

    @property
    def procedures(self) -> Optional[Dict[int, Tuple[int, int, int]]]:
        return self._directory.procedures

    @property
    def parent_schema(self) -> Schema:
        return self.parent_rel.schema

    @property
    def child_schema(self) -> Schema:
        return self.child_rels[0].schema

    @property
    def num_parents(self) -> int:
        return self.parent_rel.num_records

    @property
    def num_children(self) -> int:
        return sum(rel.num_records for rel in self.child_rels)

    # ------------------------------------------------------------------
    # logical accessors
    # ------------------------------------------------------------------
    def parents_in_range(self, lo: int, hi: int):
        """ParentRel tuples with lo <= OID <= hi, in OID order (B-tree scan)."""
        return self.parent_rel.range_scan(lo, hi)

    def fetch_parent(self, key: int) -> Tuple[Any, ...]:
        return self.parent_rel.lookup_one(key)

    def children_of(self, parent_record: Tuple[Any, ...]) -> List[Oid]:
        """The OIDs in the parent's ``children`` attribute."""
        return list(parent_record[self._children_index])

    def parent_key_of(self, parent_record: Tuple[Any, ...]) -> int:
        return parent_record[self._parent_oid_index]

    def unit_ref_of(self, parent_record: Tuple[Any, ...]) -> Tuple[int, Tuple[int, ...]]:
        """(child-relation index, child keys) of the parent's unit.

        Derived from the record contents alone — no hidden metadata is
        consulted, so using this costs exactly the I/O that fetched the
        parent tuple.
        """
        oids = parent_record[self._children_index]
        if not oids:
            raise WorkloadError(
                "parent %r has an empty unit" % (self.parent_key_of(parent_record),)
            )
        return oids[0].rel - 1, tuple(map(_OID_KEY, oids))

    def child_rel(self, rel_index: int) -> BTreeFile:
        return self.child_rels[rel_index]

    def fetch_child(self, rel_index: int, key: int) -> Tuple[Any, ...]:
        """Random access to one subobject through its relation's B-tree."""
        return self.child_rels[rel_index].lookup_one(key)

    def fetch_children(
        self, rel_index: int, keys: Sequence[int], project: Optional[Projector] = None
    ) -> List[Any]:
        """The (projected) subobjects ``keys`` of one child relation, in order."""
        out = iterative_substitution_join(keys, self.child_rels[rel_index], project)
        if len(out) != len(keys):  # OIDs are unique keys: one match each
            raise KeyNotFoundError("dangling OID into ChildRel[%d]" % rel_index)
        return out

    def child_record_bytes(self, record: Tuple[Any, ...]) -> int:
        return self.child_schema.record_size(record)

    # ------------------------------------------------------------------
    # cache lifecycle
    # ------------------------------------------------------------------
    def enable_cache(self, size_cache: int, unit_bytes_hint: int) -> UnitCache:
        """Create the Cache relation (idempotent reuse is not allowed)."""
        if self.cache is not None:
            raise WorkloadError("cache already enabled")
        self.cache = UnitCache(self.catalog, size_cache, unit_bytes_hint)
        return self.cache

    def enable_inside_cache(self, size_cache: int, unit_bytes_hint: int) -> UnitCache:
        """Create an inside (per-object) cache for the A3 ablation: a unit
        cache keyed by :func:`~repro.core.cache.inside_hashkey`."""
        if self.inside_cache is not None:
            raise WorkloadError("inside cache already enabled")
        self.inside_cache = UnitCache(
            self.catalog, size_cache, unit_bytes_hint, "InsideCache"
        )
        return self.inside_cache

    def reset_cache(self) -> None:
        """Empty the cache(s) between experiment points."""
        if self.cache is not None:
            self.cache.reset()
        if self.inside_cache is not None:
            self.inside_cache.reset()

    # ------------------------------------------------------------------
    # clustering lifecycle
    # ------------------------------------------------------------------
    def enable_clustering(self, assignment: ClusterAssignment, dummy_width: int) -> ClusterStore:
        """Build ClusterRel according to ``assignment``."""
        if self.cluster is not None:
            raise WorkloadError("clustering already enabled")
        store = ClusterStore(
            self.catalog,
            max_children=max((u.size for u in self.units), default=1),
            dummy_width=dummy_width,
        )
        leftovers = [
            (rel_index, key)
            for rel_index, rel in enumerate(self.child_rels)
            for key in range(rel.num_records)
            if (rel_index, key) not in assignment.home_parent
        ]
        store.build(
            self.parent_rel.scan(),
            self.parent_schema,
            self.fetch_child,
            assignment,
            leftover_children=leftovers,
        )
        self.cluster = store
        return store

    def require_cluster(self) -> ClusterStore:
        if self.cluster is None:
            raise WorkloadError("clustering is not enabled on this database")
        return self.cluster

    def require_cache(self) -> UnitCache:
        if self.cache is None:
            raise WorkloadError("caching is not enabled on this database")
        return self.cache

    def require_procedures(self) -> Dict[int, Tuple[int, int, int]]:
        if self.procedures is None:
            raise WorkloadError(
                "procedural representation is not enabled on this database"
            )
        return self.procedures

    def procedure_for(self, parent_key: int) -> Tuple[int, int, int]:
        """The stored query of one parent (procedural representation)."""
        return self.require_procedures()[parent_key]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply_update(
        self,
        refs: Sequence[Tuple[int, int]],
        value: int,
        through_cluster: bool = False,
        invalidate_cache: bool = False,
    ) -> None:
        """Modify ``ret1`` of the given ``(rel_index, key)`` subobjects.

        ``through_cluster`` routes the update to ClusterRel (the paper
        translates the workload's updates onto ClusterRel when clustering
        is in force); otherwise the base ChildRel tuples are updated.
        ``invalidate_cache`` additionally drops every cached unit whose
        I-lock each subobject holds.
        """
        for rel_index, key in refs:
            if through_cluster:
                self.require_cluster().update_subobject(rel_index, key, "ret1", value)
            else:
                self.child_rels[rel_index].update_field(key, "ret1", value)
            if invalidate_cache:
                if self.cache is not None:
                    self.cache.invalidate_for_subobject(rel_index, key)
                if self.inside_cache is not None:
                    self.inside_cache.invalidate_for_subobject(rel_index, key)

    # ------------------------------------------------------------------
    # measurement hygiene
    # ------------------------------------------------------------------
    def start_measurement(self, cold: bool = True) -> None:
        """Flush state so a measured run starts clean.

        With ``cold``, clears the buffer pool (cold start; the paper's
        sequences are long enough that steady state dominates, and a
        cold start treats every strategy identically).  Always zeroes the
        I/O counters, the buffer stats and the unit cache's stats: what
        is read at the end of the interval is then its own count.
        """
        if cold:
            self.pool.clear(flush=True)
        self.disk.reset_counters()
        self.pool.stats.reset()
        if self.cache is not None:
            self.cache.stats.reset()

    def storage_footprint(self) -> Dict[str, int]:
        """Pages per relation — the storage-requirement view of Section 2.4."""
        footprint = {}
        for name, relation in self.catalog.relations():
            footprint[name] = self.disk.num_pages(relation.file_id)
        return footprint
