"""Synthetic database generation (Section 4 of the paper).

``build_database`` constructs the experimental database for a parameter
point:

* ChildRel tuples get unique OIDs and "random values for retl, ret2, ret3
  and dummy";
* NumUnits units are generated from the subobjects — an exact partition
  when OverlapFactor = 1 (each subobject in exactly one unit), uniform
  random size-``SizeUnit`` draws when OverlapFactor > 1 (each subobject in
  OverlapFactor units on expectation);
* units are randomly assigned to ParentRel objects, each unit to an
  expected UseFactor of them;
* with ``num_child_rels`` > 1 the subobjects and units are spread evenly
  across the child relations (a unit's subobjects all "belong to one
  relation");
* ParentRel and ChildRel are bulk-loaded as B-trees on OID, ClusterRel
  (optional) as a B-tree on cluster# with an ISAM index on OID, and the
  Cache relation (optional) as a static hash file.

Everything flows from the seed in
:class:`~repro.workload.params.WorkloadParams`; I/O counters are zeroed
and the buffer pool cleared before the database is handed to the driver.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.clustering import assign_clusters
from repro.core.database import ComplexObjectDB, Unit
from repro.core.oid import Oid
from repro.errors import WorkloadError
from repro.storage.catalog import Catalog
from repro.storage.record import (
    CharField,
    IntField,
    OidListField,
    Schema,
    pad_string,
)
from repro.util.rng import derive_rng
from repro.workload.params import WorkloadParams

_RET_RANGE = 1_000_000


def parent_dummy_width(params: WorkloadParams) -> int:
    """Width of ParentRel.dummy bringing tuples to ``parent_bytes``."""
    fixed = 4 * 4  # oid + ret1..ret3
    children = params.size_unit * 10 + 2
    return max(1, params.parent_bytes - fixed - children - 2)


def child_dummy_width(params: WorkloadParams) -> int:
    """Width of ChildRel.dummy bringing tuples to ``child_bytes``."""
    fixed = 4 * 4
    return max(1, params.child_bytes - fixed - 2)


def make_parent_schema(params: WorkloadParams) -> Schema:
    return Schema(
        [
            IntField("oid"),
            IntField("ret1"),
            IntField("ret2"),
            IntField("ret3"),
            CharField("dummy", parent_dummy_width(params)),
            OidListField("children", max(params.size_unit * 2, 4)),
        ]
    )


def make_child_schema(params: WorkloadParams) -> Schema:
    return Schema(
        [
            IntField("oid"),
            IntField("ret1"),
            IntField("ret2"),
            IntField("ret3"),
            CharField("dummy", child_dummy_width(params)),
        ]
    )


def _distribute(total: int, bins: int) -> List[int]:
    """Split ``total`` into ``bins`` near-equal non-negative parts."""
    base = total // bins
    remainder = total % bins
    return [base + (1 if i < remainder else 0) for i in range(bins)]


def _generate_units(
    params: WorkloadParams, child_counts: Sequence[int], rng: random.Random
) -> List[Unit]:
    """Generate the units, respecting the OverlapFactor semantics."""
    units: List[Unit] = []
    unit_counts = _distribute(params.num_units, params.num_child_rels)
    for rel_index in range(params.num_child_rels):
        count = child_counts[rel_index]
        if params.overlap_factor == 1:
            # Exact partition: every subobject in exactly one unit.
            keys = list(range(count))
            rng.shuffle(keys)
            usable = (count // params.size_unit) * params.size_unit
            for start in range(0, usable, params.size_unit):
                chunk = tuple(sorted(keys[start : start + params.size_unit]))
                units.append(Unit(len(units), rel_index, chunk, ()))
        else:
            for _ in range(unit_counts[rel_index]):
                chunk = tuple(sorted(rng.sample(range(count), params.size_unit)))
                units.append(Unit(len(units), rel_index, chunk, ()))
    return units


def _assign_units(
    params: WorkloadParams, units: List[Unit], rng: random.Random
) -> Tuple[List[Unit], List[int]]:
    """Randomly deal units to parents, an expected UseFactor each.

    Returns the units (rebuilt with their ``parents`` tuples filled) and
    the per-parent unit ids.
    """
    pool: List[int] = []
    for unit in units:
        pool.extend([unit.unit_id] * params.use_factor)
    while len(pool) < params.num_parents:
        pool.append(rng.randrange(len(units)))
    rng.shuffle(pool)
    pool = pool[: params.num_parents]

    parents_of_unit: List[List[int]] = [[] for _ in units]
    for parent_key, unit_id in enumerate(pool):
        parents_of_unit[unit_id].append(parent_key)
    rebuilt = [
        Unit(u.unit_id, u.child_rel, u.child_keys, tuple(parents_of_unit[u.unit_id]))
        for u in units
    ]
    return rebuilt, pool


#: Width of each procedural query's ret2 window (> size_unit so windows
#: never collide even with rounding slack).
def _procedure_window(params: WorkloadParams) -> int:
    return params.size_unit * 2


def build_database(
    params: WorkloadParams,
    clustering: bool = False,
    cache: bool = False,
    procedural: bool = False,
    rng: Optional[random.Random] = None,
) -> ComplexObjectDB:
    """Build the experimental database for ``params``.

    ``clustering`` builds ClusterRel (for DFSCLUST), ``cache`` creates the
    Cache relation (for DFSCACHE/SMART).  Both may coexist in one database
    object so an experiment can run every strategy against identical data,
    even though no *strategy* combines them (Section 3.4).

    ``procedural`` additionally gives every parent a *stored query* that
    evaluates to exactly its unit — the procedural primary representation
    of Section 2.1.1.  The members of unit ``u`` get ``ret2`` values in
    the window ``[u*W, u*W + size)`` and the parent's procedure is
    "retrieve ChildRel where ret2 in that window"; since ChildRel has no
    index on ret2, executing a procedure costs a relation scan, the
    "sometimes large cost to determine the values of subobjects" the
    paper attributes to this representation.  Requires OverlapFactor = 1
    (a subobject cannot lie in two disjoint windows).
    """
    params.validate()
    if procedural and params.overlap_factor != 1:
        raise WorkloadError(
            "procedural representation requires overlap_factor == 1"
        )
    base_rng = rng or derive_rng(params.seed)
    rng_values = derive_rng(base_rng, stream=1)
    rng_units = derive_rng(base_rng, stream=2)
    rng_assign = derive_rng(base_rng, stream=3)
    rng_cluster = derive_rng(base_rng, stream=4)

    catalog = Catalog(params.buffer_pages, params.page_size, params.buffer_policy)
    parent_schema = make_parent_schema(params)
    child_schema = make_child_schema(params)

    # --- units first (they may shape the child tuples) -------------------
    child_counts = _distribute(params.num_children, params.num_child_rels)
    units = _generate_units(params, child_counts, rng_units)

    # In procedural mode, member ret2 values encode the unit window.
    ret2_override: Dict[Tuple[int, int], int] = {}
    if procedural:
        window = _procedure_window(params)
        for unit in units:
            for offset, key in enumerate(unit.child_keys):
                ret2_override[(unit.child_rel, key)] = (
                    unit.unit_id * window + offset
                )

    # --- child relations ------------------------------------------------
    child_rels = []
    child_dummy = pad_string("c", child_dummy_width(params))
    leftover_base = (len(units) + 1) * (_procedure_window(params))
    for rel_index in range(params.num_child_rels):
        name = (
            "ChildRel"
            if params.num_child_rels == 1
            else "ChildRel[%d]" % rel_index
        )
        rel = catalog.create_btree(name, child_schema, "oid")
        records = []
        for key in range(child_counts[rel_index]):
            if procedural:
                ret2 = ret2_override.get(
                    (rel_index, key), leftover_base + key
                )
            else:
                ret2 = rng_values.randrange(_RET_RANGE)
            records.append(
                (
                    key,
                    rng_values.randrange(_RET_RANGE),
                    ret2,
                    rng_values.randrange(_RET_RANGE),
                    child_dummy,
                )
            )
        rel.bulk_load(records)
        child_rels.append(rel)

    # --- unit assignment ---------------------------------------------------
    units, unit_of_parent_list = _assign_units(params, units, rng_assign)
    unit_of_parent = dict(enumerate(unit_of_parent_list))

    # --- ParentRel --------------------------------------------------------
    parent_rel = catalog.create_btree("ParentRel", parent_schema, "oid")
    parent_dummy = pad_string("p", parent_dummy_width(params))
    parent_records = []
    for parent_key in range(params.num_parents):
        unit = units[unit_of_parent[parent_key]]
        children = [Oid(unit.child_rel + 1, key) for key in unit.child_keys]
        parent_records.append(
            (
                parent_key,
                rng_values.randrange(_RET_RANGE),
                rng_values.randrange(_RET_RANGE),
                rng_values.randrange(_RET_RANGE),
                parent_dummy,
                children,
            )
        )
    parent_rel.bulk_load(parent_records)

    procedures = None
    if procedural:
        window = _procedure_window(params)
        procedures = {
            parent_key: (
                units[unit_id].child_rel,
                units[unit_id].unit_id * window,
                units[unit_id].unit_id * window + len(units[unit_id].child_keys) - 1,
            )
            for parent_key, unit_id in unit_of_parent.items()
        }
    db = ComplexObjectDB(
        catalog, parent_rel, child_rels, units, unit_of_parent, procedures
    )

    if clustering:
        assignment = assign_clusters(db.units, rng_cluster)
        db.enable_clustering(assignment, parent_dummy_width(params))
    if cache:
        db.enable_cache(
            params.size_cache, unit_bytes_hint=params.size_unit * params.child_bytes
        )

    db.start_measurement(cold=True)
    return db
