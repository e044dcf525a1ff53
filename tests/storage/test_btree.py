"""B+tree: bulk load, lookups, range scans, in-place updates, cursors."""

import random
import sys
import threading

import pytest

from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.storage.btree import BTreeFile
from repro.storage.catalog import Catalog
from repro.storage.record import CharField, IntField, Schema
from repro.storage.snapshot import Snapshot, SnapshotStore
from tests.storage.btree_cursor import BTreeCursor


def make_tree(catalog, name="t") -> BTreeFile:
    schema = Schema([IntField("key"), IntField("value"), CharField("pad", 64)])
    return catalog.create_btree(name, schema, "key")


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

    def test_invariants_reject_a_separator_below_its_subtree(self, loaded):
        # A static tree's separators are exactly their subtrees' first
        # keys; lowering one (still in order) is caught.
        root = loaded.pool.disk.peek_page(loaded._page_ids()[loaded._root])
        sep, child = root.get(1)
        root.replace(1, (sep - 1, child))
        with pytest.raises(AssertionError, match="its separator"):
            loaded.check_invariants()


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
            list(tree.scan()),
        )

    def test_updates_on_one_clone_leave_template_and_sibling_alone(self):
        snapshot = Snapshot.freeze(_TreeStore([rec(k, k) for k in range(0, 800, 2)]))
        template = snapshot._db.tree
        columns = self._columns(template)
        clone_a, clone_b = snapshot.attach().tree, snapshot.attach().tree
        reads = self._reads(clone_b)

        # Every leaf of clone_a is copied on write.
        for k in range(0, 800, 2):
            clone_a.update_field(k, "value", -k)
        clone_a.check_invariants()
        assert self._columns(clone_a) == columns
        assert [r[:2] for r in clone_a.scan()] == [(k, -k) for k in range(0, 800, 2)]

        assert self._columns(template) == columns
        assert self._columns(clone_b) == columns
        for clone in (clone_a, clone_b):
            assert clone._is_leaf is not template._is_leaf
            assert clone._next_leaf is not template._next_leaf
        clone_b.check_invariants()
        assert self._reads(clone_b) == reads
        # A clone taken after the updates still sees the frozen template.
        late = snapshot.attach().tree
        late.check_invariants()
        assert self._reads(late) == reads


class TestRouteMemo:
    """Remembered routes depend on the tree's shape only, which only
    ``bulk_load`` sets: clones of one snapshot share the memo."""

    def test_attach_shares_updates_keep_an_arena_starts_empty(self, tmp_path):
        snapshot = Snapshot.freeze(_TreeStore([rec(k, k) for k in range(0, 800, 2)]))
        template = snapshot._db.tree
        clone_a, clone_b = snapshot.attach().tree, snapshot.attach().tree
        assert clone_a._memo is template._memo
        assert clone_b._memo is template._memo

        clone_b.lookup(400)
        assert 400 in template._memo
        assert template._memo.keys and template._memo.ids
        clone_b.update(400, rec(400, -1))  # keys and slots stay put
        clone_a.update_field(2, "value", 7)
        assert clone_a._memo is template._memo
        assert clone_b._memo is template._memo
        assert clone_a.lookup(400) == [rec(400, 400)]
        assert clone_b.lookup(400) == [rec(400, -1)]
        assert clone_a.lookup(2) == [rec(2, 7)]
        assert clone_b.lookup(2) == [rec(2, 2)]

        store = SnapshotStore(str(tmp_path))
        revived = store.put("db", snapshot).attach().tree
        assert not revived._memo and not revived._memo.keys
        assert revived._memo.ids is None
        assert revived.lookup(400) == [rec(400, 400)]

    def test_threads_on_clones_fill_one_memo(self):
        # More threads than cores, switching often: each probes and
        # updates its own clone while all of them fill the shared memo.
        snapshot = Snapshot.freeze(_TreeStore([rec(k, k) for k in range(0, 800, 2)]))
        trees = [snapshot.attach().tree for _ in range(6)]
        errors = []

        def work(index, tree):
            try:
                keys = list(range(0, 800, 2))
                random.Random(index).shuffle(keys)
                for key in keys:
                    assert tree.lookup(key) == [rec(key, key)]
                    assert tree.lookup(key + 1) == []
                    tree.update_field(key, "value", -key - index)
                assert [r[1] for r in tree.scan()] == [-k - index for k in range(0, 800, 2)]
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=item) for item in enumerate(trees)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for tree in trees:
            assert tree._memo is snapshot._db.tree._memo
            tree.check_invariants()

    def test_clones_of_an_unloaded_tree_bulk_load_their_own_routes(self):
        snapshot = Snapshot.freeze(_TreeStore())
        for parity in (0, 1):
            tree = snapshot.attach().tree
            tree.bulk_load([rec(k, parity) for k in range(parity, 800, 2)])
            for key in (400, 401):
                want = [rec(key, parity)] if key % 2 == parity else []
                assert tree.lookup(key) == want


# ----------------------------------------------------------------------
# Shapes of a bulk load, and loads it must refuse
# ----------------------------------------------------------------------
def _tall_catalog() -> Catalog:
    """Small pages: a few hundred keys give a three-level tree."""
    return Catalog(buffer_pages=16, page_size=512)


def _capacities():
    """(records per leaf, entries per internal node) at 512-byte pages."""
    tree = make_tree(_tall_catalog())
    tree.bulk_load([rec(k) for k in range(2000)])
    peek = tree.pool.disk.peek_page
    ids = tree._page_ids()
    root = peek(ids[tree._root])
    return len(peek(ids[tree._first_leaf])), len(peek(ids[root.get(0)[1]]))


_SHAPES = {
    "one_record": lambda leaf, fan: 1,
    "one_leaf_short_of_full": lambda leaf, fan: leaf - 1,
    "one_full_leaf": lambda leaf, fan: leaf,
    "a_second_leaf": lambda leaf, fan: leaf + 1,
    "two_full_levels": lambda leaf, fan: leaf * fan,
    "a_third_level": lambda leaf, fan: leaf * fan + 1,
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_bulk_load_shape_probes_and_scans_as_built(shape):
    """Leaves pack to capacity and each level packs to fan-out, at and
    around every boundary; every key probes, every gap misses."""
    leaf, fan = _capacities()
    n = _SHAPES[shape](leaf, fan)
    tree = make_tree(_tall_catalog())
    records = [rec(2 * i, i) for i in range(n)]
    tree.bulk_load(records)
    tree.check_invariants()
    assert tree.num_records == n
    assert tree.num_leaf_pages == -(-n // leaf)
    assert tree.height == (1 if n <= leaf else 2 if n <= leaf * fan else 3)
    assert list(tree.scan()) == records
    for i in range(n):
        assert tree.lookup(2 * i) == [records[i]]
        assert tree.lookup(2 * i + 1) == []
    assert tree.lookup(-1) == []
    lo, hi = 2 * (n // 3), 2 * (2 * n // 3) + 1
    assert list(tree.range_scan(lo, hi)) == records[n // 3 : 2 * n // 3 + 1]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize(
    "fault, error", [("duplicate", DuplicateKeyError), ("unsorted", StorageError)]
)
def test_a_refused_bulk_load_leaves_the_tree_empty_and_loadable(fault, error, where):
    keys = list(range(0, 200, 2))
    at = {"first": 0, "middle": len(keys) // 2, "last": len(keys) - 2}[where]
    bad = list(keys)
    if fault == "duplicate":
        bad[at + 1] = bad[at]
    else:
        bad[at], bad[at + 1] = bad[at + 1], bad[at]
    tree = make_tree(_tall_catalog())
    with pytest.raises(error):
        tree.bulk_load([rec(k) for k in bad])
    assert tree.num_pages == 0
    assert tree.num_records == 0
    tree.check_invariants()
    tree.bulk_load([rec(k) for k in keys])
    tree.check_invariants()
    assert [r[0] for r in tree.scan()] == keys


# ----------------------------------------------------------------------
# check_invariants: each structural check fires on its own fault
# ----------------------------------------------------------------------
def _peek(tree, page_no):
    return tree.pool.disk.peek_page(tree._page_ids()[page_no])


def _root(tree):
    return _peek(tree, tree._root)


def _first_child(tree, page_no):
    return _peek(tree, _peek(tree, page_no).get(0)[1])


def _swap_leaf_keys(tree):
    leaf = _peek(tree, tree._first_leaf)
    leaf.replace(0, rec(leaf.get(1)[0]))


def _bump_count(tree):
    tree._num_records += 1


def _share_a_child(tree):
    root = _root(tree)
    root.replace(1, (root.get(1)[0], root.get(0)[1]))


def _point_past_metadata(tree):
    root = _root(tree)
    last = len(root) - 1
    root.replace(last, (root.get(last)[0], len(tree._is_leaf) + 5))


def _claim_a_level_more(tree):
    tree.height += 1


def _empty_the_last_leaf(tree):
    node = tree._first_leaf
    while tree._next(node) is not None:
        node = tree._next(node)
    tree._num_records -= len(_peek(tree, node).pop_all())


def _empty_the_root(tree):
    _root(tree).pop_all()


def _swap_root_separators(tree):
    root = _root(tree)
    first, second = root.get(0), root.get(1)
    root.replace(0, second)
    root.replace(1, first)


def _lower_fence_below_a_leaf_key(tree):
    # The second separator of the leftmost bottom internal node drops to
    # the last key of the leaf before it: still in order, but a fence
    # that key is not below.
    parent = _first_child(tree, tree._root)
    leaf = _peek(tree, parent.get(0)[1])
    parent.replace(1, (leaf.get(len(leaf) - 1)[0], parent.get(1)[1]))


def _lower_fence_below_a_separator(tree):
    root = _root(tree)
    child = _first_child(tree, tree._root)
    root.replace(1, (child.get(len(child) - 1)[0], root.get(1)[1]))


def _lower_a_separator(tree):
    root = _root(tree)
    sep, child = root.get(1)
    root.replace(1, (sep - 1, child))


def _track_a_phantom_node(tree):
    tree._is_leaf.append(1)


def _allocate_an_orphan_page(tree):
    tree.pool.new_page(tree.file_id)


def _rewrite_a_memoized_key(tree):
    # In order and inside its fences, on a leaf a probe has memoized:
    # only the memo check can tell.
    leaf = _peek(tree, tree._first_leaf)
    key = leaf.get(1)[0]
    assert tree.lookup(key)
    leaf.replace(1, rec(key + 1, key))


_BTREE_FAULTS = [
    (_swap_leaf_keys, "leaf chain key order violated"),
    (_bump_count, "leaf chain has"),
    (_share_a_child, "reached twice"),
    (_point_past_metadata, "has no node metadata"),
    (_claim_a_level_more, "at depth"),
    (_empty_the_last_leaf, "leaf .* is empty"),
    (_empty_the_root, "internal node .* is empty"),
    (_swap_root_separators, "out of order"),
    (_lower_fence_below_a_leaf_key, "in leaf .* above fence"),
    (_lower_fence_below_a_separator, "of node .* above fence"),
    (_lower_a_separator, "its separator"),
    (_track_a_phantom_node, "metadata tracks"),
    (_allocate_an_orphan_page, "pages of .* allocated"),
    (_rewrite_a_memoized_key, "memoized keys of page .* differ"),
]


@pytest.mark.parametrize(
    "corrupt, message", _BTREE_FAULTS, ids=[f.__name__[1:] for f, _ in _BTREE_FAULTS]
)
def test_check_invariants_catches(corrupt, message):
    tree = make_tree(_tall_catalog())
    tree.bulk_load([rec(k, k) for k in range(0, 1600, 2)])
    assert tree.height == 3
    tree.check_invariants()
    corrupt(tree)
    with pytest.raises(AssertionError, match=message):
        tree.check_invariants()


def test_check_invariants_catches_an_unloaded_tree_claiming_records(catalog):
    tree = make_tree(catalog)
    tree.check_invariants()
    tree._num_records = 3
    with pytest.raises(AssertionError, match="claims 3 records"):
        tree.check_invariants()
