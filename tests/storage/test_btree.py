"""B+tree: bulk load, lookups, range scans, inserts with splits, cursors."""

import random

import pytest

from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.storage.btree import BTreeFile
from repro.storage.catalog import Catalog
from repro.storage.record import CharField, IntField, Schema
from repro.storage.snapshot import Snapshot, SnapshotStore
from tests.storage.btree_cursor import BTreeCursor


def make_tree(catalog, name="t", unique=True) -> BTreeFile:
    schema = Schema([IntField("key"), IntField("value"), CharField("pad", 64)])
    return catalog.create_btree(name, schema, "key", unique=unique)


def rec(k: int, v: int = 0, pad: str = "p" * 30):
    return (k, v, pad)


@pytest.fixture
def loaded(catalog):
    tree = make_tree(catalog)
    tree.bulk_load([rec(k, k * 2) for k in range(0, 1000, 2)])  # even keys
    return tree


class TestBulkLoad:
    def test_requires_sorted_input(self, catalog):
        tree = make_tree(catalog)
        with pytest.raises(StorageError):
            tree.bulk_load([rec(2), rec(1)])

    def test_rejects_duplicates_when_unique(self, catalog):
        tree = make_tree(catalog)
        with pytest.raises(DuplicateKeyError):
            tree.bulk_load([rec(1), rec(1)])

    def test_rejects_double_load(self, loaded):
        with pytest.raises(StorageError):
            loaded.bulk_load([rec(1)])

    def test_empty_load_gives_empty_tree(self, catalog):
        tree = make_tree(catalog)
        tree.bulk_load([])
        assert tree.num_records == 0
        assert list(tree.scan()) == []

    def test_builds_multiple_levels(self, loaded):
        assert loaded.height >= 2
        assert loaded.num_leaf_pages > 1
        loaded.check_invariants()

    def test_fill_factor_spreads_records(self, catalog):
        full = make_tree(catalog, "full")
        full.bulk_load([rec(k) for k in range(500)], fill_factor=1.0)
        loose = make_tree(catalog, "loose")
        loose.bulk_load([rec(k) for k in range(500)], fill_factor=0.5)
        assert loose.num_leaf_pages > full.num_leaf_pages

    def test_bad_fill_factor(self, catalog):
        tree = make_tree(catalog)
        with pytest.raises(ValueError):
            tree.bulk_load([rec(1)], fill_factor=0.01)


class TestLookup:
    def test_hit(self, loaded):
        assert loaded.lookup_one(500) == rec(500, 1000)

    def test_miss_returns_empty(self, loaded):
        assert loaded.lookup(501) == []
        assert not loaded.contains(501)

    def test_lookup_one_raises_on_miss(self, loaded):
        with pytest.raises(KeyNotFoundError):
            loaded.lookup_one(501)

    def test_boundary_keys(self, loaded):
        assert loaded.lookup_one(0)[0] == 0
        assert loaded.lookup_one(998)[0] == 998

    def test_empty_tree_lookup(self, catalog):
        tree = make_tree(catalog)
        assert tree.lookup(5) == []


class TestRangeScan:
    def test_full_scan_in_order(self, loaded):
        keys = [r[0] for r in loaded.scan()]
        assert keys == list(range(0, 1000, 2))

    def test_bounded_range(self, loaded):
        keys = [r[0] for r in loaded.range_scan(100, 110)]
        assert keys == [100, 102, 104, 106, 108, 110]

    def test_exclusive_hi(self, loaded):
        keys = [r[0] for r in loaded.range_scan(100, 110, include_hi=False)]
        assert keys[-1] == 108

    def test_bounds_between_keys(self, loaded):
        keys = [r[0] for r in loaded.range_scan(99, 105)]
        assert keys == [100, 102, 104]

    def test_open_lo(self, loaded):
        keys = [r[0] for r in loaded.range_scan(None, 4)]
        assert keys == [0, 2, 4]

    def test_range_past_end(self, loaded):
        assert list(loaded.range_scan(2000, 3000)) == []


class TestInsert:
    def test_insert_into_empty(self, catalog):
        tree = make_tree(catalog)
        tree.insert(rec(5))
        assert tree.lookup_one(5) == rec(5)

    def test_interleaved_inserts_keep_order(self, catalog):
        tree = make_tree(catalog)
        keys = list(range(400))
        rng = random.Random(3)
        rng.shuffle(keys)
        for k in keys:
            tree.insert(rec(k))
        assert [r[0] for r in tree.scan()] == list(range(400))
        tree.check_invariants()

    def test_insert_splits_leaves(self, catalog):
        tree = make_tree(catalog)
        for k in range(300):
            tree.insert(rec(k))
        assert tree.num_leaf_pages > 1
        assert tree.height >= 2

    def test_duplicate_insert_rejected(self, catalog):
        tree = make_tree(catalog)
        tree.insert(rec(1))
        with pytest.raises(DuplicateKeyError):
            tree.insert(rec(1))

    def test_non_unique_tree_allows_duplicates(self, catalog):
        tree = make_tree(catalog, "dups", unique=False)
        tree.insert(rec(1, 10))
        tree.insert(rec(1, 20))
        assert sorted(r[1] for r in tree.lookup(1)) == [10, 20]

    def test_insert_after_bulk_load(self, loaded):
        loaded.insert(rec(501))
        assert loaded.contains(501)
        loaded.check_invariants()


class TestUpdate:
    def test_update_field(self, loaded):
        loaded.update_field(100, "value", 777)
        assert loaded.lookup_one(100)[1] == 777

    def test_update_preserves_key(self, loaded):
        with pytest.raises(StorageError):
            loaded.update(100, rec(101))

    def test_update_missing_key(self, loaded):
        with pytest.raises(KeyNotFoundError):
            loaded.update(999, rec(999))

    def test_update_marks_dirty(self, catalog):
        tree = make_tree(catalog)
        tree.bulk_load([rec(k) for k in range(100)])
        catalog.pool.clear(flush=True)
        catalog.disk.reset_counters()
        tree.update_field(50, "value", 1)
        catalog.pool.clear(flush=True)
        assert catalog.disk.writes == 1  # exactly the touched leaf


class TestCursor:
    def test_seek_and_walk(self, loaded):
        cursor = BTreeCursor(loaded)
        cursor.seek(100)
        assert cursor.current()[0] == 100
        cursor.advance()
        assert cursor.current()[0] == 102

    def test_seek_between_keys(self, loaded):
        cursor = BTreeCursor(loaded)
        cursor.seek(101)
        assert cursor.current()[0] == 102

    def test_seek_past_end(self, loaded):
        cursor = BTreeCursor(loaded)
        cursor.seek(5000)
        assert cursor.current() is None

    def test_sorted_probe_reads_each_leaf_once(self, catalog):
        tree = make_tree(catalog, "probe")
        tree.bulk_load([rec(k) for k in range(2000)])
        catalog.pool.clear(flush=True)
        catalog.disk.reset_counters()
        cursor = BTreeCursor(tree)
        for k in range(0, 2000, 5):
            cursor.seek(k)
            assert cursor.current()[0] == k
        leaf_reads = catalog.disk.reads
        # Every leaf holds several probed keys; reads must not exceed the
        # leaf count plus the (few) index pages.
        assert leaf_reads <= tree.num_pages


class TestDelete:
    def test_delete_removes(self, loaded):
        record = loaded.delete(100)
        assert record[0] == 100
        assert not loaded.contains(100)
        assert loaded.num_records == 499
        loaded.check_invariants()

    def test_delete_missing_raises(self, loaded):
        with pytest.raises(KeyNotFoundError):
            loaded.delete(101)

    def test_delete_if_present(self, loaded):
        assert loaded.delete_if_present(2)
        assert not loaded.delete_if_present(2)

    def test_reinsert_after_delete(self, loaded):
        loaded.delete(500)
        loaded.insert(rec(500, 777))
        assert loaded.lookup_one(500)[1] == 777
        loaded.check_invariants()

    def test_empty_a_leaf_then_scan(self, catalog):
        tree = make_tree(catalog, "drain")
        tree.bulk_load([rec(k) for k in range(200)])
        for k in range(30, 60):  # empties at least one whole leaf
            tree.delete(k)
        keys = [r[0] for r in tree.scan()]
        assert keys == [k for k in range(200) if not 30 <= k < 60]

    def test_range_scan_skips_deleted(self, catalog):
        tree = make_tree(catalog, "skip")
        tree.bulk_load([rec(k) for k in range(100)])
        tree.delete(50)
        assert [r[0] for r in tree.range_scan(49, 51)] == [49, 51]

    def test_drain_completely(self, catalog):
        tree = make_tree(catalog, "all-gone")
        tree.bulk_load([rec(k) for k in range(120)])
        for k in range(120):
            tree.delete(k)
        assert tree.num_records == 0
        assert list(tree.scan()) == []
        tree.insert(rec(5))
        assert tree.lookup_one(5) == rec(5)


class _TreeStore:
    """The two members ``Snapshot.freeze`` needs, over one B-tree."""

    def __init__(self, records=None):
        self.catalog = Catalog(buffer_pages=16, page_size=512)
        self.tree = make_tree(self.catalog)
        if records is not None:
            self.tree.bulk_load(records)

    @property
    def disk(self):
        return self.catalog.disk

    def start_measurement(self, cold=True):
        self.catalog.pool.clear(flush=True)
        self.disk.reset_counters()


class TestSidecarCloneIsolation:
    """The flat node-header columns are private to each snapshot clone."""

    def _columns(self, tree):
        return bytes(tree._is_leaf), list(tree._next_leaf)

    def _reads(self, tree):
        return (
            [tree.lookup(k) for k in (0, 2, 3, 400, 798, 799)],
            list(tree.range_scan(100, 140)),
            [r[0] for r in tree.scan()],
        )

    def test_splits_on_one_clone_leave_template_and_sibling_alone(self):
        snapshot = Snapshot.freeze(_TreeStore([rec(k, k) for k in range(0, 800, 2)]))
        template = snapshot._db.tree
        columns = self._columns(template)
        clone_a, clone_b = snapshot.attach().tree, snapshot.attach().tree
        reads = self._reads(clone_b)
        leaves = clone_a.num_leaf_pages
        internal = clone_a.num_pages - leaves

        # Odd keys land between every resident pair: every leaf splits,
        # and the internal level has to split to hold the separators.
        for k in range(1, 800, 2):
            clone_a.insert(rec(k, -k))
        clone_a.check_invariants()
        assert clone_a.num_leaf_pages >= 2 * leaves
        assert clone_a.num_pages - clone_a.num_leaf_pages > internal
        assert self._columns(clone_a) != columns
        assert [r[0] for r in clone_a.scan()] == list(range(800))

        assert self._columns(template) == columns
        assert self._columns(clone_b) == columns
        assert clone_b._is_leaf is not template._is_leaf
        assert clone_b._next_leaf is not template._next_leaf
        clone_b.check_invariants()
        assert self._reads(clone_b) == reads
        # A clone taken after the splits still sees the frozen template.
        late = snapshot.attach().tree
        late.check_invariants()
        assert self._reads(late) == reads


class TestRouteMemo:
    """Remembered routes depend on the tree's shape only: clones of one
    snapshot share the memo until they change shape."""

    def test_attach_shares_a_shape_change_replaces_an_arena_starts_empty(
        self, tmp_path
    ):
        snapshot = Snapshot.freeze(_TreeStore([rec(k, k) for k in range(0, 800, 2)]))
        template = snapshot._db.tree
        clone_a, clone_b = snapshot.attach().tree, snapshot.attach().tree
        assert clone_a._routes is template._routes
        assert clone_b._routes is template._routes

        clone_b.lookup(400)
        assert 400 in template._routes
        clone_b.update(400, rec(400, -1))  # keys and slots stay put
        assert clone_b._routes is template._routes

        clone_a.insert(rec(401, 1))
        assert clone_a._routes is not template._routes
        assert not clone_a._routes
        clone_b.delete(2)
        assert clone_b._routes is not template._routes
        assert clone_a.lookup(400) == [rec(400, 400)]
        assert clone_b.lookup(400) == [rec(400, -1)]
        assert clone_a.lookup(401) == [rec(401, 1)]
        assert clone_b.lookup(2) == []

        store = SnapshotStore(str(tmp_path))
        revived = store.put("db", snapshot).attach().tree
        assert not revived._routes
        assert revived.lookup(400) == [rec(400, 400)]

    def test_clones_of_an_unloaded_tree_bulk_load_their_own_routes(self):
        snapshot = Snapshot.freeze(_TreeStore())
        for parity in (0, 1):
            tree = snapshot.attach().tree
            tree.bulk_load([rec(k, parity) for k in range(parity, 800, 2)])
            for key in (400, 401):
                want = [rec(key, parity)] if key % 2 == parity else []
                assert tree.lookup(key) == want
