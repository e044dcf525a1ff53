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
from repro.storage.heap import HeapFile
from repro.storage.page import PageId
from repro.storage.record import CharField, IntField, Schema
from repro.storage.snapshot import Snapshot
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


class _Twin:
    """A small-page catalog: the inner tree plus a six-page ``foreign`` heap
    (and the two members ``Snapshot.freeze`` needs)."""

    def __init__(self, tree_keys, frames, policy):
        self.catalog = Catalog(buffer_pages=frames, page_size=128, buffer_policy=policy)
        self.tree = self.catalog.create_btree("inner", KV_SCHEMA, "key")
        self.tree.bulk_load([(key, i) for i, key in enumerate(tree_keys)])
        self.foreign = HeapFile(self.catalog.pool, KEY_SCHEMA, "foreign")
        self.foreign.insert_many([(k,) for k in range(80)])

    @property
    def disk(self):
        return self.catalog.disk

    def start_measurement(self, cold=True):
        self.catalog.pool.clear(flush=True)
        self.disk.reset_counters()


def _twin(tree_keys, frames, cold, policy="lru", frozen=False):
    """A fresh :class:`_Twin`, or with ``frozen`` a clone of one frozen to a
    snapshot (which starts cold)."""
    twin = _Twin(tree_keys, frames, policy)
    if frozen:
        return Snapshot.freeze(twin).attach()
    if cold:
        twin.catalog.pool.clear(flush=True)
    return twin


def _ledger(twin):
    pool, disk = twin.catalog.pool, twin.disk
    return (
        pool.stats.as_dict(), disk.reads, disk.writes,
        list(pool._frames), dict(pool._referenced), pool._clock_hand,
    )


def _poke(twin, index, record=None):
    """Use the pool as a foreign party would: an even ``index`` touches one
    foreign page, an odd one scans enough of them to evict the leaf.  Given
    the ``record`` just matched, rewrite its value instead: a write to the
    very leaf a walk is on, between two of its matches."""
    if record is not None:
        twin.tree.update_field(record[0], "value", record[1] + 1000)
    elif index % 2:
        list(twin.foreign.scan())
    else:
        twin.catalog.pool.fetch(PageId(twin.foreign.file_id, 0))


def _drive(twin, matches, pokes, update=False):
    """Consume ``matches``, poking the pool after the match indices in
    ``pokes`` (a consumer may, between two results); with ``update``, each
    poke rewrites the match it follows."""
    out = []
    for index, record in enumerate(matches):
        out.append(record)
        if index in pokes:
            _poke(twin, index, record if update else None)
    return out


def assert_walk_matches_cursor(
    tree_keys, probes, frames, cold, outer, pokes=(), policy="lru", frozen=False,
    update=False,
):
    """Run one join both ways; results, counters, I/O and LRU order agree."""
    walk = _twin(tree_keys, frames, cold, policy, frozen)
    ref = _twin(tree_keys, frames, cold, policy, frozen)
    if outer == "temp":
        # Page batches: the outer fetches a temp page at every boundary.
        records = [(key,) for key in probes]
        temp = make_temp(walk.catalog.pool, KEY_SCHEMA, records)
        got = join_sorted_temp(temp, walk.tree)
        ref_temp = make_temp(ref.catalog.pool, KEY_SCHEMA, records)
        want = list(cursor_join((r[0] for r in ref_temp.scan()), ref.tree))
        ref_temp.drop()
    else:
        keys = list(probes) if outer == "list" else iter(probes)
        got = _drive(walk, merge_probe_join(keys, walk.tree), pokes, update)
        want = _drive(ref, cursor_join(iter(probes), ref.tree), pokes, update)
    assert got == want
    assert _ledger(walk) == _ledger(ref)
    return got


OUTERS = ("list", "lazy", "temp")


class TestMergeWalkMatchesCursor:
    @pytest.mark.parametrize("outer", OUTERS)
    def test_every_key_including_each_leafs_last(self, outer):
        # 60 keys = 9 leaves under a 3-frame pool: every probe of a
        # leaf's last record steps to the next leaf, every descent evicts.
        tree_keys = list(range(0, 120, 2))
        got = assert_walk_matches_cursor(tree_keys, tree_keys, 3, True, outer)
        assert [record[0] for record in got] == tree_keys

    @pytest.mark.parametrize("outer", OUTERS)
    def test_absent_duplicate_and_out_of_range_probes(self, outer):
        tree_keys = list(range(10, 110, 2))
        probes = [-5, 3, 10, 10, 11, 11, 22, 22, 22, 23] + [
            2 * PER_LEAF * i + 8 for i in range(1, 7)
        ] + [108, 108, 109, 200, 200]
        assert_walk_matches_cursor(tree_keys, sorted(probes), 4, False, outer)

    def test_empty_and_single_leaf_trees(self):
        for tree_keys in ([], [5]):
            for outer in OUTERS:
                assert_walk_matches_cursor(tree_keys, [1, 5, 5, 9], 3, False, outer)

    @given(
        tree_keys=st.sets(st.integers(0, 80), max_size=90),
        probes=st.lists(st.integers(-2, 83), max_size=60),
        frames=st.integers(3, 7),
        cold=st.booleans(),
        outer=st.sampled_from(OUTERS),
        pokes=st.frozensets(st.integers(0, 40), max_size=6),
    )
    def test_random_joins(self, tree_keys, probes, frames, cold, outer, pokes):
        assert_walk_matches_cursor(
            sorted(tree_keys), sorted(probes), frames, cold, outer, pokes
        )

    @pytest.mark.parametrize("frozen", [False, True], ids=["private", "frozen-clone"])
    @pytest.mark.parametrize("policy", ["lru", "clock"])
    @pytest.mark.parametrize("frames", [3, 8])
    def test_update_of_the_walks_own_leaf_between_matches(self, frames, policy, frozen):
        # Each match is rewritten before the walk moves on: in place on a
        # private tree, into a private copy of the leaf on a clone.  Keys
        # span the leaves' first, middle and last records, repeats
        # included, so the next match is often on the leaf just written.
        tree_keys = list(range(0, 120, 2))
        probes = sorted(tree_keys[:30] + [4, 4, 13, 12, 12, 60])
        pokes = frozenset(range(len(probes)))
        for outer in ("list", "lazy"):
            got = assert_walk_matches_cursor(
                tree_keys, probes, frames, True, outer, pokes, policy, frozen, True
            )
            assert [record[0] for record in got] == [k for k in probes if k % 2 == 0]


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


def assert_probe_matches_cursor(tree_keys, batches, frames, policy, cold):
    """Probe each batch twice both ways (the second pass replays the
    routes the first remembered), a foreign poke after each pass; after
    every pass results, counters, I/O and replacement state agree."""
    got = _twin(tree_keys, frames, cold, policy)
    ref = _twin(tree_keys, frames, cold, policy)
    for index, batch in enumerate(batches):
        for _ in range(2):
            assert got.tree.probe_many(batch) == cursor_probe(batch, ref.tree)
            assert _ledger(got) == _ledger(ref)
            _poke(got, index)
            _poke(ref, index)
    return got, ref


class TestProbeManyMatchesCursor:
    @pytest.mark.parametrize("policy", ["lru", "clock"])
    @pytest.mark.parametrize("frames", [2, 3, 8])
    def test_leaf_first_leaf_last_absent_and_repeated_keys(self, frames, policy):
        # Nine leaves of seven: every key is probed, so each leaf's first
        # record and its last (the one whose cursor loop steps right).
        present = list(range(0, 120, 2))
        batches = [
            present,
            present[::-1],
            [-3, present[0], present[0], 7, present[-1], present[-1], 500],
            [present[PER_LEAF - 1], present[PER_LEAF], present[PER_LEAF - 1]],
            [],
        ]
        assert_probe_matches_cursor(present, batches, frames, policy, True)

    def test_projection_and_the_join_operator(self, inner):
        assert inner.probe_many([6, 3, 2], project=lambda r: r[1]) == [60, 20]
        assert iterative_substitution_join((4, 4), inner) == inner.lookup(4) * 2

    def test_empty_and_single_leaf_trees(self):
        for tree_keys in ([], [5]):
            assert_probe_matches_cursor(tree_keys, [[1, 5, 5, 9]], 3, "lru", False)

    def test_missing_key_leaves_the_counters_where_the_cursor_does(self):
        tree_keys = list(range(0, 120, 2))
        for absent in (-1, 13, 2 * PER_LEAF - 1, 500):
            got, ref = assert_probe_matches_cursor(tree_keys, [[4, 40]], 3, "lru", True)
            with pytest.raises(KeyNotFoundError):
                got.tree.lookup_one(absent)
            assert cursor_probe([absent], ref.tree) == []
            assert _ledger(got) == _ledger(ref)

    @given(
        tree_keys=st.sets(st.integers(0, 80), max_size=90),
        batches=st.lists(st.lists(st.integers(-2, 83), max_size=25), max_size=5),
        frames=st.integers(2, 8),
        policy=st.sampled_from(["lru", "clock"]),
        cold=st.booleans(),
    )
    def test_random_probes(self, tree_keys, batches, frames, policy, cold):
        assert_probe_matches_cursor(sorted(tree_keys), batches, frames, policy, cold)
