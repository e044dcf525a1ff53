"""Property-based tests (hypothesis) for core data structures and invariants.

Example budgets come from the shared profile loaded in ``conftest.py``
(``HYPOTHESIS_PROFILE``, default ``quick``); tests do not pin their own
``@settings`` so one knob scales the whole suite.
"""

import random

from hypothesis import given, strategies as st

from repro.core.cache import UnitCache, unit_hashkey
from repro.core.oid import KEY_SPACE, Oid
from repro.core.queries import RetrieveQuery
from repro.core.strategies import make_strategy
from repro.query.sort import external_sort
from repro.query.temp import make_temp
from repro.storage.catalog import Catalog
from repro.storage.hashfile import stable_hash
from repro.storage.page import Page, PageId, PAGE_HEADER_BYTES, SLOT_BYTES
from repro.storage.record import CharField, IntField, Schema
from repro.util.stats import RunningStats, percentile

# ----------------------------------------------------------------------
# OIDs
# ----------------------------------------------------------------------


@given(rel=st.integers(0, 10**6), key=st.integers(0, KEY_SPACE - 1))
def test_oid_roundtrip(rel, key):
    oid = Oid(rel, key)
    assert Oid.decode(oid.encode()) == oid


@given(
    a=st.tuples(st.integers(0, 100), st.integers(0, KEY_SPACE - 1)),
    b=st.tuples(st.integers(0, 100), st.integers(0, KEY_SPACE - 1)),
)
def test_oid_encoding_is_order_preserving(a, b):
    oa, ob = Oid(*a), Oid(*b)
    assert (oa < ob) == (oa.encode() < ob.encode())


# ----------------------------------------------------------------------
# stable_hash
# ----------------------------------------------------------------------


@given(st.one_of(st.integers(), st.text(max_size=50)))
def test_stable_hash_deterministic_and_nonnegative(value):
    assert stable_hash(value) == stable_hash(value)
    assert stable_hash(value) >= 0


@given(st.lists(st.integers(0, 10**9), max_size=8))
def test_unit_hashkey_list_tuple_agree(keys):
    assert unit_hashkey(1, keys) == unit_hashkey(1, tuple(keys))


# ----------------------------------------------------------------------
# Pages
# ----------------------------------------------------------------------


@given(sizes=st.lists(st.integers(1, 400), max_size=60))
def test_page_byte_accounting(sizes):
    page = Page(PageId(0, 0), 2048)
    inserted = 0
    for size in sizes:
        if page.fits(size):
            page.insert(("r", size), size)
            inserted += 1
    assert len(page) == inserted
    assert page.used_bytes <= page.capacity
    expected = PAGE_HEADER_BYTES + sum(
        page.record_size(i) + SLOT_BYTES for i in range(len(page))
    )
    assert page.used_bytes == expected


@given(
    sizes=st.lists(st.integers(1, 200), min_size=1, max_size=30),
    delete_seed=st.integers(0, 2**16),
)
def test_page_delete_restores_budget(sizes, delete_seed):
    page = Page(PageId(0, 0), 4096)
    for size in sizes:
        if page.fits(size):
            page.insert(size, size)
    rng = random.Random(delete_seed)
    while len(page):
        page.delete(rng.randrange(len(page)))
    assert page.used_bytes == PAGE_HEADER_BYTES


# ----------------------------------------------------------------------
# B-tree vs model
# ----------------------------------------------------------------------


def _tree(catalog_pages=32):
    catalog = Catalog(buffer_pages=catalog_pages, page_size=512)
    schema = Schema([IntField("key"), IntField("value")])
    return catalog.create_btree("t", schema, "key")


@given(keys=st.lists(st.integers(0, 5000), unique=True, max_size=250))
def test_btree_bulk_load_matches_sorted_model(keys):
    tree = _tree()
    tree.bulk_load([(k, k * 3) for k in sorted(keys)])
    assert [r[0] for r in tree.scan()] == sorted(keys)
    tree.check_invariants()
    for k in keys[:20]:
        assert tree.lookup_one(k) == (k, k * 3)


@given(
    keys=st.lists(st.integers(0, 2000), unique=True, min_size=1, max_size=200),
    lo=st.integers(0, 2000),
    span=st.integers(0, 500),
)
def test_btree_range_scan_matches_model(keys, lo, span):
    tree = _tree()
    tree.bulk_load([(k, 0) for k in sorted(keys)])
    hi = lo + span
    got = [r[0] for r in tree.range_scan(lo, hi)]
    assert got == [k for k in sorted(keys) if lo <= k <= hi]


# ----------------------------------------------------------------------
# Hash file vs dict model
# ----------------------------------------------------------------------


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "lookup"]),
            st.integers(0, 40),
        ),
        max_size=120,
    )
)
def test_hashfile_matches_dict_model(ops):
    catalog = Catalog(buffer_pages=16, page_size=512)
    schema = Schema([IntField("key"), CharField("v", 64)])
    hashfile = catalog.create_hash("h", schema, "key", buckets=4)
    model = {}
    for op, key in ops:
        if op == "insert":
            if key in model:
                continue
            hashfile.insert((key, "v%d" % key))
            model[key] = "v%d" % key
        elif op == "delete":
            assert hashfile.delete_if_present(key) == (model.pop(key, None) is not None)
        else:
            record = hashfile.lookup(key)
            if key in model:
                assert record == (key, model[key])
            else:
                assert record is None
    assert len(hashfile) == len(model)
    assert sorted(r[0] for r in hashfile.scan()) == sorted(model)


# ----------------------------------------------------------------------
# External sort
# ----------------------------------------------------------------------


@given(
    values=st.lists(st.integers(-10**6, 10**6), max_size=400),
    workspace=st.integers(3, 8),
)
def test_external_sort_matches_sorted(values, workspace):
    catalog = Catalog(buffer_pages=16, page_size=512)
    schema = Schema([IntField("OID")])
    temp = make_temp(catalog.pool, schema, [(v,) for v in values])
    result = external_sort(
        catalog.pool, temp, key=lambda r: r[0], workspace_pages=workspace
    )
    assert [r[0] for r in result.scan()] == sorted(values)
    result.drop()


@given(values=st.lists(st.integers(0, 50), max_size=200))
def test_external_sort_distinct_matches_set(values):
    catalog = Catalog(buffer_pages=16, page_size=512)
    schema = Schema([IntField("OID")])
    temp = make_temp(catalog.pool, schema, [(v,) for v in values])
    result = external_sort(
        catalog.pool, temp, key=lambda r: r[0], distinct=True
    )
    assert [r[0] for r in result.scan()] == sorted(set(values))
    result.drop()


# ----------------------------------------------------------------------
# Unit cache
# ----------------------------------------------------------------------


@given(
    unit_keys=st.lists(
        st.lists(st.integers(0, 60), unique=True, min_size=1, max_size=4),
        min_size=1,
        max_size=40,
    ),
    capacity=st.integers(1, 10),
)
def test_cache_never_exceeds_capacity_and_locks_consistent(unit_keys, capacity):
    catalog = Catalog(buffer_pages=16, page_size=512)
    cache = UnitCache(catalog, size_cache=capacity, unit_bytes_hint=100)
    for keys in unit_keys:
        hk = unit_hashkey(0, keys)
        if cache.contains(hk):
            continue
        payload = tuple((k,) for k in keys)
        cache.insert(hk, 0, keys, payload, 20 * len(keys))
        assert cache.num_cached <= capacity
        assert cache.lookup(hk) == payload
    # Invalidate everything through the subobjects; cache must drain.
    for keys in unit_keys:
        for k in keys:
            cache.invalidate_for_subobject(0, k)
    assert cache.num_cached == 0
    assert len(cache.ilocks) == 0


# ----------------------------------------------------------------------
# Strategy equivalence on random queries
# ----------------------------------------------------------------------


def _shared_db():
    # Build once; hypothesis only varies the queries.
    from repro.workload.generator import build_database
    from repro.workload.params import WorkloadParams

    if not hasattr(_shared_db, "db"):
        params = WorkloadParams(
            num_parents=120,
            use_factor=3,
            overlap_factor=2,
            num_child_rels=2,
            size_cache=15,
            buffer_pages=12,
            num_top=5,
            seed=13,
        )
        _shared_db.db = build_database(params, clustering=True, cache=True)
    return _shared_db.db


@given(
    lo=st.integers(0, 119),
    span=st.integers(0, 40),
    attr=st.sampled_from(["ret1", "ret2", "ret3"]),
)
def test_strategies_agree_on_random_queries(lo, span, attr):
    from collections import Counter

    db = _shared_db()
    hi = min(119, lo + span)
    query = RetrieveQuery(lo, hi, attr)
    db.reset_cache()
    reference = Counter(make_strategy("DFS").retrieve(db, query))
    for name in ("BFS", "DFSCACHE", "DFSCLUST", "SMART"):
        db.reset_cache()
        assert Counter(make_strategy(name).retrieve(db, query)) == reference, name


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_running_stats_matches_batch(values):
    stats = RunningStats()
    stats.extend(values)
    assert stats.mean == sum(values) / len(values) or abs(
        stats.mean - sum(values) / len(values)
    ) < 1e-6 * max(1.0, abs(sum(values)))
    assert stats.minimum == min(values)
    assert stats.maximum == max(values)


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=100))
def test_percentile_bounds(values):
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)
    assert min(values) <= percentile(values, 37) <= max(values)


# ----------------------------------------------------------------------
# Clustering assignment
# ----------------------------------------------------------------------


@given(
    data=st.lists(
        st.tuples(
            st.lists(st.integers(0, 30), unique=True, min_size=1, max_size=4),
            st.lists(st.integers(0, 20), unique=True, max_size=3),
        ),
        max_size=15,
    ),
    seed=st.integers(0, 2**16),
)
def test_cluster_assignment_invariants(data, seed):
    """Every subobject is placed at most once, only with a referencing
    parent of some unit that contains it, and referenced subobjects of
    parented units are always placed."""
    from repro.core.clustering import assign_clusters
    from repro.core.database import Unit

    units = [
        Unit(i, 0, tuple(sorted(keys)), tuple(parents))
        for i, (keys, parents) in enumerate(data)
    ]
    assignment = assign_clusters(units, random.Random(seed))

    placed = [ref for refs in assignment.claimed.values() for ref in refs]
    assert len(placed) == len(set(placed))  # each subobject once
    assert set(placed) == set(assignment.home_parent)

    for (rel, key), parent in assignment.home_parent.items():
        holders = [
            u for u in units if key in u.child_keys and parent in u.parents
        ]
        assert holders, "home parent must reference a unit holding the child"

    for unit in units:
        if unit.parents:
            for key in unit.child_keys:
                assert (0, key) in assignment.home_parent


@given(
    depth=st.integers(1, 3),
    lo=st.integers(0, 60),
    span=st.integers(0, 10),
)
def test_deep_bfs_dfs_agree(depth, lo, span):
    from collections import Counter

    from repro.core.deep import DeepQuery, deep_bfs, deep_dfs

    db = _shared_deep_db()
    hi = min(79, lo + span)
    query = DeepQuery(lo, hi, depth)
    assert Counter(deep_dfs(db, query)) == Counter(deep_bfs(db, query))


def _shared_deep_db():
    if not hasattr(_shared_deep_db, "db"):
        from repro.workload.deepgen import DeepParams, build_deep_database

        _shared_deep_db.db = build_deep_database(
            DeepParams(num_roots=80, depth=3, size_unit=3, use_factor=3,
                       buffer_pages=10, seed=5)
        )
    return _shared_deep_db.db
