"""Per-layer probes: timed loops of direct calls into one layer.

Each probe runs on a fresh clone of the workload's own frozen database,
with keys and pages taken from the workload's own operations, so a
number here is the cost of that layer *as this workload uses it*.  The
probes run after the measured passes and never inside a timed window.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

import harness
from harness import ns_per_call, timed

from repro.core.cache import unit_hashkey
from repro.core.queries import RetrieveQuery
from repro.query.join import merge_probe_join
from repro.query.sort import external_sort
from repro.query.temp import make_temp
from repro.storage.record import IntField, Schema
from repro.storage.snapshot import Snapshot, SnapshotStore
from repro.workload.generator import build_database

#: The BFS temporary's schema: one OID attribute.
_OID_SCHEMA = Schema([IntField("OID")])

#: Retrieves of the sequence whose parents/children feed the probes.
_SAMPLE_RETRIEVES = 5


def _sample(snapshot: Any, sequence: Sequence[Any]) -> Tuple[List[Tuple[int, int]], List[Any]]:
    """``(parent ranges, child OIDs)`` of the sequence's first retrieves."""
    db = snapshot.attach()
    ranges = [
        (op.lo, op.hi) for op in sequence if isinstance(op, RetrieveQuery)
    ][:_SAMPLE_RETRIEVES]
    oids = [
        oid
        for lo, hi in ranges
        for parent in db.parents_in_range(lo, hi)
        for oid in db.children_of(parent)
    ]
    return ranges, oids


def buffer_probes(snapshot: Any) -> Dict[str, float]:
    """Hit, miss and first-write cost of the buffer pool."""
    db = snapshot.attach()
    pool = db.pool
    page_ids = db.disk.page_ids(db.child_rels[0].file_id)
    out: Dict[str, float] = {}

    resident = page_ids[0]
    pool.fetch(resident)
    out["storage.buffer.fetch_hit_ns"] = ns_per_call(pool.fetch, [resident] * 20000)

    # Every fetch of a pass over distinct pages from an empty pool is a
    # miss; past the pool's capacity each one also evicts.
    cycle = page_ids[:1500]
    passes = []
    for _ in range(3):
        pool.clear(flush=False)
        passes.append(ns_per_call(pool.fetch, cycle))
    out["storage.buffer.fetch_miss_ns"] = min(passes)

    # First write to a frozen page: the hit plus the private copy.
    batch = page_ids[: min(80, pool.capacity - 4)]
    costs = []
    for _ in range(5):
        clone = snapshot.attach()
        for page_id in batch:
            clone.pool.fetch(page_id)
        costs.append(ns_per_call(clone.pool.writable, batch))
    out["storage.buffer.writable_cow_ns"] = min(costs)
    return out


def pool_fetch_ns(probed: Dict[str, float], stats: Dict[str, int]) -> float:
    """Estimated time inside ``BufferPool.fetch`` for ``stats`` hits and
    misses, at the probed per-fetch costs."""
    return (
        stats["hits"] * probed["storage.buffer.fetch_hit_ns"]
        + stats["misses"] * probed["storage.buffer.fetch_miss_ns"]
    )


def btree_probes(snapshot: Any, sequence: Sequence[Any]) -> Dict[str, float]:
    ranges, oids = _sample(snapshot, sequence)
    db = snapshot.attach()
    out: Dict[str, float] = {}

    child_rel = db.child_rels[0]
    keys = [oid.key for oid in oids if oid.rel == 1][:3000]
    stats = db.pool.stats
    before = stats.hits + stats.misses
    out["storage.btree.lookup_us"] = ns_per_call(child_rel.lookup, keys) / 1e3
    out["storage.btree.fetches_per_lookup"] = (
        stats.hits + stats.misses - before
    ) / len(keys)

    clock = time.perf_counter_ns
    records = 0
    t0 = clock()
    for lo, hi in ranges:
        records += len(list(db.parent_rel.range_scan(lo, hi)))
    out["storage.btree.range_scan_ns_per_record"] = (clock() - t0) / records

    updates = keys[:300]
    out["storage.btree.update_field_us"] = (
        ns_per_call(lambda key: child_rel.update_field(key, "ret1", 7), updates) / 1e3
    )
    return out


def query_probes(snapshot: Any, sequence: Sequence[Any]) -> Dict[str, float]:
    """Temp build, external sort, merge-probe join and heap scan over a
    ``num_top x size_unit`` temporary of the workload's own child OIDs."""
    _ranges, oids = _sample(snapshot, sequence)
    db = snapshot.attach()
    pool = db.pool
    records = [(oid.key,) for oid in oids if oid.rel == 1]
    count = len(records)
    out: Dict[str, float] = {}

    temp, seconds = timed(make_temp, pool, _OID_SCHEMA, records, "probe-temp")
    out["query.temp.insert_us_per_record"] = seconds * 1e6 / count

    heap, seconds = timed(make_temp, pool, _OID_SCHEMA, None, "probe-heap")
    _n, seconds = timed(heap.heap.insert_many, records)
    out["storage.heap.insert_many_ns_per_record"] = seconds * 1e9 / count
    _pages, seconds = timed(lambda: sum(len(page) for page in heap.heap.scan_pages()))
    out["storage.heap.scan_ns_per_record"] = seconds * 1e9 / count
    heap.drop()

    sorted_temp, seconds = timed(external_sort, pool, temp, lambda r: r[0])
    out["query.sort.us_per_record"] = seconds * 1e6 / count

    probe_keys = [record[0] for record in sorted_temp.scan()]
    _matches, seconds = timed(
        lambda: sum(1 for _ in merge_probe_join(probe_keys, db.child_rels[0]))
    )
    out["query.join.us_per_probe"] = seconds * 1e6 / count
    sorted_temp.drop()
    return out


def cache_probes(snapshot: Any, sequence: Sequence[Any]) -> Dict[str, float]:
    """Unit-cache insert/lookup and the hash file under it (cache
    databases only)."""
    ranges, _oids = _sample(snapshot, sequence)
    db = snapshot.attach()
    cache = db.require_cache()
    units = {}
    for lo, hi in ranges:
        for parent in db.parents_in_range(lo, hi):
            rel_index, child_keys = db.unit_ref_of(parent)
            units[unit_hashkey(rel_index, child_keys)] = (rel_index, child_keys)
    units = dict(list(units.items())[: cache.size_cache])
    payloads = {
        hashkey: tuple(db.fetch_child(rel_index, key) for key in child_keys)
        for hashkey, (rel_index, child_keys) in units.items()
    }
    sizes = {
        hashkey: sum(db.child_record_bytes(child) for child in payload)
        for hashkey, payload in payloads.items()
    }
    out: Dict[str, float] = {}

    def insert(hashkey: int) -> None:
        rel_index, child_keys = units[hashkey]
        cache.insert(hashkey, rel_index, child_keys, payloads[hashkey], sizes[hashkey])

    hashkeys = list(units)
    out["core.cache.insert_us"] = ns_per_call(insert, hashkeys) / 1e3
    out["core.cache.lookup_us"] = ns_per_call(cache.lookup, hashkeys) / 1e3

    stats = db.pool.stats
    before = stats.hits + stats.misses
    out["storage.hashfile.lookup_us"] = (
        ns_per_call(cache.relation.lookup, hashkeys) / 1e3
    )
    out["storage.hashfile.fetches_per_lookup"] = (
        stats.hits + stats.misses - before
    ) / len(hashkeys)
    return out


def codec_probes(snapshot: Any) -> Dict[str, float]:
    """Encode/decode of the workload's own page images."""
    db = snapshot.attach()
    page_ids = db.disk.page_ids(db.child_rels[0].file_id)
    pages = [db.disk.peek_page(page_id) for page_id in page_ids]
    pages = [page for page in pages if page.codec is not None][:200]  # leaves only
    codec = pages[0].codec
    batches = [page.record_batch() for page in pages]
    images = [bytes(page.to_bytes()) for page in pages]
    return {
        "storage.record.encode_us_per_page": ns_per_call(codec.encode, batches) / 1e3,
        "storage.record.decode_us_per_page": ns_per_call(codec.decode, images) / 1e3,
    }


def snapshot_probes(snapshot: Any, repeats: int) -> Dict[str, float]:
    """``Snapshot.attach`` and ``Snapshot.freeze`` of a clone."""
    attaches = []
    freezes = []
    for _ in range(repeats):
        clone, seconds = timed(snapshot.attach)
        attaches.append(seconds * 1e3)
        _frozen, seconds = timed(Snapshot.freeze, clone)
        freezes.append(seconds * 1e3)
    attaches.sort()
    freezes.sort()
    return {
        "storage.snapshot.attach_ms": attaches[len(attaches) // 2],
        "storage.snapshot.freeze_ms": freezes[len(freezes) // 2],
    }


def isam_probe(params: Any) -> Dict[str, float]:
    """``IsamIndex.lookup`` on a clustered build of ``params``."""
    from repro.core.oid import Oid

    db = build_database(params, clustering=True)
    index = db.require_cluster().oid_index
    keys = [Oid(1, key).encode() for key in range(min(2000, db.child_rels[0].num_records))]
    return {"storage.isam.lookup_us": ns_per_call(index.lookup, keys) / 1e3}


_ARENA_LOAD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.storage.snapshot import SnapshotStore
store = SnapshotStore(sys.argv[2])
t0 = time.perf_counter()
snapshot = store.get("probe")
elapsed = time.perf_counter() - t0
assert snapshot is not None
print(elapsed * 1e3)
"""


def arena_probes(params: Any) -> Dict[str, float]:
    """``SnapshotStore.put``, the first ``get`` in a new process, and the
    arena's size relative to the page bytes it holds."""
    db = build_database(params)
    page_bytes = db.disk.total_pages() * db.disk.page_size
    snapshot = Snapshot.freeze(db)
    root = harness.fresh_tmp("arena-probe")
    try:
        store = SnapshotStore(root)
        _none, put_s = timed(store.put, "probe", snapshot)
        size = store.bytes_on_disk()
        done = subprocess.run(
            [sys.executable, "-c", _ARENA_LOAD, harness.SRC_DIR, root],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        load_ms = float(done.stdout.strip())
        store.clear()
    finally:
        harness.remove_tmp(root)
    return {
        "storage.arena.put_ms": put_s * 1e3,
        "storage.arena.load_ms": load_ms,
        "storage.arena.bytes_per_page_byte": size / page_bytes,
    }
