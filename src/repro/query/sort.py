"""External merge sort.

BFS needs its temporary of OIDs sorted before the merge join (Section 3.1)
and BFSNODUP eliminates duplicates "before executing the query", which a
sort-based engine does during the sort.  This module implements the classic
two-phase external sort *for real*: run generation bounded by a workspace
budget, run files written through the buffer pool (so their I/O is
counted), and k-way merges until one sorted output remains.

Small inputs (the common case at low NumTop) fit in a single run: the sort
then costs one read pass plus the sealed output's writes — exactly the
modest "cost of forming a temporary" the paper attributes to BFS at small
NumTop.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.trace import stage
from repro.storage.buffer import BufferPool
from repro.storage.record import Schema
from repro.query.temp import TempRelation, make_temp

KeyFunc = Callable[[Tuple[Any, ...]], Any]


def external_sort(
    pool: BufferPool,
    source: TempRelation,
    key: KeyFunc,
    distinct: bool = False,
    workspace_pages: Optional[int] = None,
    drop_source: bool = True,
) -> TempRelation:
    """Sort ``source`` by ``key`` into a fresh sealed temporary.

    ``distinct`` drops records with duplicate keys (keeping the first seen
    in key order) — the BFSNODUP refinement.  ``workspace_pages`` bounds
    the in-memory run size; it defaults to the full buffer-pool capacity,
    which is how much memory the paper's single-query-at-a-time INGRES
    sorts could use.  ``drop_source`` releases the input temporary once
    its records have been consumed.
    """
    if workspace_pages is None:
        workspace_pages = pool.capacity
    if workspace_pages < 3:
        raise ValueError("external sort needs at least 3 workspace pages")

    schema = source.schema
    page_budget = workspace_pages * pool.disk.page_size

    with stage("sort"):
        # --------------------------------------------------------------
        # Phase 1: run generation.
        # --------------------------------------------------------------
        record_size = schema.record_size
        fixed = schema._fixed_record_size
        # Fixed-size records fill the workspace after a fixed record
        # count, so the run boundary is a length check instead of
        # per-record byte accounting (same flush points either way).
        threshold = None if fixed is None else -(-page_budget // fixed)
        runs: List[TempRelation] = []
        batch: List[Tuple[Any, ...]] = []
        batch_bytes = 0
        # Page-at-a-time consumption: one pool touch per source page, then
        # the decoded batch is taken in slices that end at a run boundary.
        for records in source.scan_pages():
            if threshold is not None:
                pos = 0
                while len(batch) + len(records) - pos >= threshold:
                    end = pos + threshold - len(batch)
                    batch.extend(records[pos:end])
                    pos = end
                    runs.append(_write_run(pool, schema, batch, key, distinct))
                    batch = []
                batch.extend(records[pos:] if pos else records)
                continue
            for record in records:
                batch.append(record)
                batch_bytes += record_size(record)
                if batch_bytes >= page_budget:
                    runs.append(_write_run(pool, schema, batch, key, distinct))
                    batch = []
                    batch_bytes = 0
        if batch or not runs:
            runs.append(_write_run(pool, schema, batch, key, distinct))
        if drop_source:
            source.drop()

        # --------------------------------------------------------------
        # Phase 2: k-way merges until a single run remains.  Duplicate
        # elimination happens *inside* run generation and the merges (the
        # classic sort-unique), so BFSNODUP pays no extra pass over BFS —
        # it only shrinks the runs.
        # --------------------------------------------------------------
        fan_in = max(2, workspace_pages - 1)
        while len(runs) > 1:
            next_runs: List[TempRelation] = []
            for start in range(0, len(runs), fan_in):
                group = runs[start : start + fan_in]
                next_runs.append(_merge_runs(pool, schema, group, key, distinct))
            runs = next_runs
        return runs[0]


def _unique(records, key: KeyFunc):
    last = object()
    for record in records:
        current = key(record)
        if current != last:
            yield record
            last = current


def _write_run(
    pool: BufferPool,
    schema: Schema,
    batch: List[Tuple[Any, ...]],
    key: KeyFunc,
    distinct: bool = False,
) -> TempRelation:
    batch.sort(key=key)
    # A list, so the run is spooled a page at a time (no pull from it
    # can touch the pool; see HeapFile.insert_many).
    records = list(_unique(batch, key)) if distinct else batch
    return make_temp(pool, schema, records, prefix="sort-run")


def _merge_runs(
    pool: BufferPool,
    schema: Schema,
    group: List[TempRelation],
    key: KeyFunc,
    distinct: bool = False,
) -> TempRelation:
    if len(group) == 1:
        return group[0]
    streams = [run.scan() for run in group]
    merged = heapq.merge(*streams, key=key)
    if distinct:
        merged = _unique(merged, key)
    out = make_temp(pool, schema, merged, prefix="sort-merge")
    for run in group:
        run.drop()
    return out
