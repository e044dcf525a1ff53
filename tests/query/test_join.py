"""Join operators against a B-tree inner."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import KeyNotFoundError
from repro.obs import MetricsRegistry, Tracer
from repro.obs.trace import stage
from repro.query.join import (
    iterative_substitution_join,
    join_sorted_temp,
    merge_probe_join,
)
from repro.query.temp import make_temp
from repro.storage.catalog import Catalog
from repro.storage.page import PageId
from repro.storage.record import CharField, IntField, Schema
from tests.storage.btree_cursor import BTreeCursor


@pytest.fixture
def inner(catalog):
    schema = Schema([IntField("key"), IntField("value"), CharField("pad", 64)])
    tree = catalog.create_btree("inner", schema, "key")
    tree.bulk_load([(k, k * 10, "p" * 40) for k in range(0, 1000, 2)])
    return tree


class TestMergeProbeJoin:
    def test_matches_in_order(self, inner):
        out = list(merge_probe_join([2, 4, 6], inner))
        assert [r[0] for r in out] == [2, 4, 6]

    def test_missing_keys_skipped(self, inner):
        out = list(merge_probe_join([1, 2, 3, 4], inner))
        assert [r[0] for r in out] == [2, 4]

    def test_duplicate_probe_keys_duplicate_output(self, inner):
        out = list(merge_probe_join([2, 2, 2], inner))
        assert [r[0] for r in out] == [2, 2, 2]

    def test_projection(self, inner):
        out = list(merge_probe_join([10, 20], inner, project=lambda r: r[1]))
        assert out == [100, 200]

    def test_empty_probe_stream(self, inner):
        assert list(merge_probe_join([], inner)) == []

    def test_sorted_probes_touch_each_leaf_once(self, catalog, inner):
        catalog.pool.clear(flush=True)
        catalog.disk.reset_counters()
        keys = list(range(0, 1000, 2))
        out = list(merge_probe_join(keys, inner))
        assert len(out) == 500
        # Reading every record sorted must cost at most one pass over the
        # tree's pages (leaves + index).
        assert catalog.disk.reads <= inner.num_pages

    def test_non_unique_inner_yields_group(self, catalog):
        schema = Schema([IntField("key"), IntField("value")])
        tree = catalog.create_btree("multi", schema, "key", unique=False)
        tree.bulk_load([(1, 1), (2, 21), (2, 22), (3, 3)])
        out = list(merge_probe_join([2], tree))
        assert sorted(r[1] for r in out) == [21, 22]


class TestIterativeSubstitution:
    def test_matches_any_order(self, inner):
        out = list(iterative_substitution_join([6, 2, 4], inner))
        assert [r[0] for r in out] == [6, 2, 4]

    def test_projection_and_misses(self, inner):
        out = list(
            iterative_substitution_join([2, 3], inner, project=lambda r: r[1])
        )
        assert out == [20]

    def test_same_results_as_merge_join(self, inner):
        keys = [0, 2, 2, 500, 998]
        merge = sorted(r[0] for r in merge_probe_join(sorted(keys), inner))
        nested = sorted(r[0] for r in iterative_substitution_join(keys, inner))
        assert merge == nested

    def test_probe_stage_is_closed_when_the_join_returns(self, catalog, inner):
        # A caller that reads only the first match (or uses the pool
        # between matches) must not stay attributed to ``probe``.
        tracer = Tracer(registry=MetricsRegistry())
        with tracer.observe(catalog.disk):
            matches = iterative_substitution_join([6, 2, 4], inner)
            assert next(iter(matches))[0] == 6
            assert tracer.stage is None
            with stage("scan"):
                iterative_substitution_join([8], inner)
                assert tracer.stage == "scan"

    def test_random_probes_cost_more_than_sorted(self, catalog):
        # The inner must exceed the buffer pool for the access pattern to
        # matter (a fully resident tree makes every plan free).
        import random

        schema = Schema([IntField("key"), CharField("pad", 128)])
        tree = catalog.create_btree("big", schema, "key")
        tree.bulk_load([(k, "p" * 100) for k in range(4000)])
        assert tree.num_pages > catalog.pool.capacity

        keys = list(range(0, 4000, 2))
        catalog.pool.clear(flush=True)
        catalog.disk.reset_counters()
        list(merge_probe_join(keys, tree))
        sorted_cost = catalog.disk.reads

        rng = random.Random(0)
        shuffled = keys[:]
        rng.shuffle(shuffled)
        catalog.pool.clear(flush=True)
        catalog.disk.reset_counters()
        list(iterative_substitution_join(shuffled, tree))
        random_cost = catalog.disk.reads
        assert random_cost > sorted_cost


# ----------------------------------------------------------------------
# the batched walk against the literal cursor loop, on twin pools
# ----------------------------------------------------------------------
KV_SCHEMA = Schema([IntField("key"), IntField("value")])
KEY_SCHEMA = Schema([IntField("key")])
PER_LEAF = 7  # (key, value) records to a 128-byte leaf


def cursor_join(sorted_keys, inner):
    """The merge join as a literal record-at-a-time BTreeCursor loop: the
    reference ``BTreeFile.merge_walk`` must match touch for touch."""
    cursor = BTreeCursor(inner)
    last_key = object()
    last_matches = []
    for key in sorted_keys:
        if key == last_key:
            yield from last_matches
            continue
        cursor.seek(key)
        last_key = key
        last_matches = []
        record = cursor.current()
        while record is not None and record[0] == key:
            last_matches.append(record)
            yield record
            cursor.advance()
            record = cursor.current()


def _twin(tree_keys, unique, frames, cold, policy="lru"):
    """A small-page catalog: the inner tree plus a six-page ``foreign`` heap."""
    catalog = Catalog(buffer_pages=frames, page_size=128, buffer_policy=policy)
    tree = catalog.create_btree("inner", KV_SCHEMA, "key", unique=unique)
    tree.bulk_load([(key, i) for i, key in enumerate(tree_keys)])
    catalog.create_heap("foreign", KEY_SCHEMA).insert_many([(k,) for k in range(80)])
    if cold:
        catalog.pool.clear(flush=True)
    return catalog, tree


def _ledger(catalog):
    pool, disk = catalog.pool, catalog.disk
    return (
        pool.stats.as_dict(), disk.reads, disk.writes,
        list(pool._frames), dict(pool._referenced), pool._clock_hand,
    )


def _poke(catalog, index):
    """Use the pool as a foreign party would: an even ``index`` touches one
    foreign page, an odd one scans enough of them to evict the leaf."""
    foreign = catalog.get("foreign")
    if index % 2:
        list(foreign.scan())
    else:
        catalog.pool.fetch(PageId(foreign.file_id, 0))


def _drive(catalog, matches, pokes):
    """Consume ``matches``, poking the pool after the match indices in
    ``pokes`` (a consumer may, between two results)."""
    out = []
    for index, record in enumerate(matches):
        out.append(record)
        if index in pokes:
            _poke(catalog, index)
    return out


def assert_walk_matches_cursor(tree_keys, unique, probes, frames, cold, outer, pokes=()):
    """Run one join both ways; results, counters, I/O and LRU order agree."""
    walk_catalog, walk_tree = _twin(tree_keys, unique, frames, cold)
    ref_catalog, ref_tree = _twin(tree_keys, unique, frames, cold)
    if outer == "temp":
        # Page batches: the outer fetches a temp page at every boundary.
        records = [(key,) for key in probes]
        temp = make_temp(walk_catalog.pool, KEY_SCHEMA, records)
        got = join_sorted_temp(temp, walk_tree)
        ref_temp = make_temp(ref_catalog.pool, KEY_SCHEMA, records)
        want = list(cursor_join((r[0] for r in ref_temp.scan()), ref_tree))
        ref_temp.drop()
    else:
        keys = list(probes) if outer == "list" else iter(probes)
        got = _drive(walk_catalog, merge_probe_join(keys, walk_tree), pokes)
        want = _drive(ref_catalog, cursor_join(iter(probes), ref_tree), pokes)
    assert got == want
    assert _ledger(walk_catalog) == _ledger(ref_catalog)
    return got


OUTERS = ("list", "lazy", "temp")


class TestMergeWalkMatchesCursor:
    @pytest.mark.parametrize("outer", OUTERS)
    @pytest.mark.parametrize("unique", [True, False])
    def test_every_key_including_each_leafs_last(self, outer, unique):
        # 60 keys = 9 leaves under a 3-frame pool: every probe of a
        # leaf's last record steps to the next leaf, every descent evicts.
        tree_keys = list(range(0, 120, 2)) if unique else [k // 3 for k in range(60)]
        probes = sorted(set(tree_keys))
        got = assert_walk_matches_cursor(tree_keys, unique, probes, 3, True, outer)
        assert [record[0] for record in got] == tree_keys

    @pytest.mark.parametrize("outer", OUTERS)
    def test_absent_duplicate_and_out_of_range_probes(self, outer):
        tree_keys = list(range(10, 110, 2))
        probes = [-5, 3, 10, 10, 11, 11, 22, 22, 22, 23] + [
            2 * PER_LEAF * i + 8 for i in range(1, 7)
        ] + [108, 108, 109, 200, 200]
        assert_walk_matches_cursor(tree_keys, True, sorted(probes), 4, False, outer)

    def test_empty_and_single_leaf_trees(self):
        for tree_keys in ([], [5], [5, 5, 5]):
            for outer in OUTERS:
                assert_walk_matches_cursor(tree_keys, False, [1, 5, 5, 9], 3, False, outer)

    @given(
        unique=st.booleans(),
        tree_keys=st.lists(st.integers(0, 80), max_size=90),
        probes=st.lists(st.integers(-2, 83), max_size=60),
        frames=st.integers(3, 7),
        cold=st.booleans(),
        outer=st.sampled_from(OUTERS),
        pokes=st.frozensets(st.integers(0, 40), max_size=6),
    )
    def test_random_joins(self, unique, tree_keys, probes, frames, cold, outer, pokes):
        tree_keys = sorted(set(tree_keys)) if unique else sorted(tree_keys)
        assert_walk_matches_cursor(
            tree_keys, unique, sorted(probes), frames, cold, outer, pokes
        )


# ----------------------------------------------------------------------
# the batched nested-loop probe against the literal cursor loop
# ----------------------------------------------------------------------
def cursor_probe(keys, inner):
    """The nested-loop join as a literal BTreeCursor loop — a fresh cursor,
    hence a root-to-leaf descent, per key: the reference
    ``BTreeFile.probe_many`` must match touch for touch."""
    out = []
    for key in keys:
        cursor = BTreeCursor(inner)
        cursor.seek(key)
        record = cursor.current()
        while record is not None and record[0] == key:
            out.append(record)
            cursor.advance()
            record = cursor.current()
    return out


def assert_probe_matches_cursor(tree_keys, unique, batches, frames, policy, cold):
    """Probe batch after batch both ways, a foreign poke after each; after
    every batch results, counters, I/O and replacement state agree."""
    got_catalog, got_tree = _twin(tree_keys, unique, frames, cold, policy)
    ref_catalog, ref_tree = _twin(tree_keys, unique, frames, cold, policy)
    for index, batch in enumerate(batches):
        assert got_tree.probe_many(batch) == cursor_probe(batch, ref_tree)
        assert _ledger(got_catalog) == _ledger(ref_catalog)
        _poke(got_catalog, index)
        _poke(ref_catalog, index)
    return got_tree, ref_tree, got_catalog, ref_catalog


class TestProbeManyMatchesCursor:
    @pytest.mark.parametrize("policy", ["lru", "clock"])
    @pytest.mark.parametrize("frames", [2, 3, 8])
    @pytest.mark.parametrize("unique", [True, False])
    def test_leaf_first_leaf_last_absent_and_repeated_keys(self, unique, frames, policy):
        # Nine leaves of seven: every key is probed, so each leaf's first
        # record and its last (the one whose cursor loop steps right).
        tree_keys = list(range(0, 120, 2)) if unique else [k // 3 for k in range(60)]
        present = sorted(set(tree_keys))
        batches = [
            present,
            present[::-1],
            [-3, present[0], present[0], 7, present[-1], present[-1], 500],
            [present[PER_LEAF - 1], present[PER_LEAF], present[PER_LEAF - 1]],
            [],
        ]
        assert_probe_matches_cursor(tree_keys, unique, batches, frames, policy, True)

    def test_projection_and_the_join_operator(self, inner):
        assert inner.probe_many([6, 3, 2], project=lambda r: r[1]) == [60, 20]
        assert iterative_substitution_join((4, 4), inner) == inner.lookup(4) * 2

    def test_empty_and_single_leaf_trees(self):
        for tree_keys in ([], [5], [5, 5, 5]):
            assert_probe_matches_cursor(tree_keys, False, [[1, 5, 5, 9]], 3, "lru", False)

    def test_missing_key_leaves_the_counters_where_the_cursor_does(self):
        tree_keys = list(range(0, 120, 2))
        for absent in (-1, 13, 2 * PER_LEAF - 1, 500):
            got_tree, ref_tree, got_catalog, ref_catalog = assert_probe_matches_cursor(
                tree_keys, True, [[4, 40]], 3, "lru", True
            )
            with pytest.raises(KeyNotFoundError):
                got_tree.lookup_one(absent)
            assert cursor_probe([absent], ref_tree) == []
            assert _ledger(got_catalog) == _ledger(ref_catalog)

    @given(
        unique=st.booleans(),
        tree_keys=st.lists(st.integers(0, 80), max_size=90),
        batches=st.lists(st.lists(st.integers(-2, 83), max_size=25), max_size=5),
        frames=st.integers(2, 8),
        policy=st.sampled_from(["lru", "clock"]),
        cold=st.booleans(),
    )
    def test_random_probes(self, unique, tree_keys, batches, frames, policy, cold):
        tree_keys = sorted(set(tree_keys)) if unique else sorted(tree_keys)
        assert_probe_matches_cursor(tree_keys, unique, batches, frames, policy, cold)
