"""Copy-on-write snapshots: frozen pages, clone isolation, the store."""

import copy
import gc
import os
import sys
import weakref

import pytest

from repro.core.cache import CACHE_SCHEMA
from repro.core.strategies.base import make_strategy
from repro.errors import FrozenPageError
from repro.fault import plan as _fault
from repro.fault.plan import FaultPlan, FaultSpec
from repro.obs import MetricsRegistry, Tracer
from repro.storage import arena
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import Page, PageId
from repro.storage.snapshot import Snapshot, SnapshotStore
from repro.workload.driver import run_sequence
from repro.workload.generator import build_database
from repro.workload.params import WorkloadParams
from repro.workload.queries import generate_sequence


def make_page(records=("a", "b")) -> Page:
    page = Page(PageId(0, 0), 256)
    for record in records:
        page.insert(record, 10)
    return page


class TestFrozenPage:
    def test_frozen_page_refuses_every_mutator(self):
        page = make_page()
        page.freeze()
        with pytest.raises(FrozenPageError):
            page.insert("c", 10)
        with pytest.raises(FrozenPageError):
            page.replace(0, "c", 10)
        with pytest.raises(FrozenPageError):
            page.delete(0)
        with pytest.raises(FrozenPageError):
            page.pop_all()

    def test_frozen_page_still_reads(self):
        page = make_page()
        page.freeze()
        assert list(page) == ["a", "b"]
        assert page.get(1) == "b"

    def test_copy_is_mutable_and_equal(self):
        page = make_page()
        page.replace(0, "a2", 12)  # a write before the freeze
        page.freeze()
        dup = page.copy()
        assert not dup.frozen
        assert list(dup) == list(page)
        assert dup.used_bytes == page.used_bytes
        dup.insert("c", 10)
        assert list(page) == ["a2", "b"]  # original untouched


class TestDiskCow:
    def _disk_with_pages(self, pages=2):
        disk = DiskManager(page_size=256)
        fid = disk.create_file()
        for i in range(pages):
            page = disk.allocate_page(fid)
            page.insert("r%d" % i, 10)
        return disk, fid

    def test_freeze_seals_every_page(self):
        disk, fid = self._disk_with_pages()
        disk.freeze()
        for page_no in range(2):
            with pytest.raises(FrozenPageError):
                disk.peek_page(PageId(fid, page_no)).insert("x", 10)

    def test_cow_page_swaps_in_a_private_copy(self):
        disk, fid = self._disk_with_pages()
        disk.freeze()
        frozen = disk.peek_page(PageId(fid, 0))
        thawed = disk.cow_page(PageId(fid, 0))
        assert thawed is not frozen
        assert not thawed.frozen
        assert disk.peek_page(PageId(fid, 0)) is thawed
        # Idempotent: the second call returns the already-private copy.
        assert disk.cow_page(PageId(fid, 0)) is thawed

    def test_cow_page_on_mutable_page_is_identity(self):
        disk, fid = self._disk_with_pages()
        page = disk.peek_page(PageId(fid, 0))
        assert disk.cow_page(PageId(fid, 0)) is page

    def test_clone_shares_pages_with_fresh_counters(self):
        disk, fid = self._disk_with_pages()
        disk.read_page(PageId(fid, 0))
        dup = disk.clone()
        assert dup.peek_page(PageId(fid, 1)) is disk.peek_page(PageId(fid, 1))
        assert dup.reads == 0 and dup.writes == 0


class TestBufferWritable:
    def test_writable_accounting_matches_fetch(self):
        disk = DiskManager(page_size=256)
        fid = disk.create_file()
        disk.allocate_page(fid)
        pool = BufferPool(disk, capacity=4)
        pool.writable(PageId(fid, 0))  # miss
        pool.writable(PageId(fid, 0))  # hit
        assert (pool.stats.misses, pool.stats.hits) == (1, 1)
        assert disk.reads == 1

    def test_writable_cows_frozen_page_without_io(self):
        disk = DiskManager(page_size=256)
        fid = disk.create_file()
        disk.allocate_page(fid).insert("a", 10)
        disk.freeze()
        pool = BufferPool(disk, capacity=4)
        frozen = pool.fetch(PageId(fid, 0))
        reads_before = disk.reads
        page = pool.writable(PageId(fid, 0))
        assert page is not frozen and not page.frozen
        # The private copy is free: a real engine modifies the buffered
        # frame in place, so no extra I/O may be charged.
        assert disk.reads == reads_before
        page.insert("b", 10)
        # Later fetches see the private copy, not the frozen template.
        assert pool.fetch(PageId(fid, 0)) is page


class TestSnapshotAttach:
    @pytest.fixture
    def snapshot(self, tiny_params):
        return Snapshot.freeze(build_database(tiny_params))

    def _unit(self, db):
        rel_index, keys = db.unit_ref_of(db.fetch_parent(1))
        return rel_index, keys[0]

    def test_clone_pages_start_frozen_until_written(self, snapshot):
        # Isolation between clones hinges on every clone page starting
        # frozen: the first write goes through the pool's copy-on-write
        # path instead of mutating state another clone can observe.
        one, two = snapshot.attach(), snapshot.attach()
        pages_one = [p for ps in one.disk._files.values() for p in ps]
        pages_two = [p for ps in two.disk._files.values() for p in ps]
        assert pages_one and len(pages_one) == len(pages_two)
        assert all(p.frozen for p in pages_one)

    def test_clone_mutation_is_invisible_to_other_clones(self, snapshot):
        one, two = snapshot.attach(), snapshot.attach()
        rel_index, key = self._unit(one)
        ret1 = one.child_schema.field_index("ret1")
        before = two.fetch_child(rel_index, key)
        one.apply_update([(rel_index, key)], 424242)
        assert one.fetch_child(rel_index, key)[ret1] == 424242
        assert two.fetch_child(rel_index, key) == before

    def test_template_survives_clone_mutation(self, snapshot):
        one = snapshot.attach()
        rel_index, key = self._unit(one)
        one.apply_update([(rel_index, key)], 777)
        later = snapshot.attach()
        assert later.fetch_child(rel_index, key)[
            later.child_schema.field_index("ret1")
        ] != 777


class TestCacheEnabledClones:
    """A unit cache holds no state tied to its schema (sizes ride with values)."""

    @pytest.fixture(params=["fresh", "arena"])
    def snapshot(self, request, tiny_params, tmp_path):
        snapshot = Snapshot.freeze(build_database(tiny_params, cache=True))
        if request.param == "arena":
            SnapshotStore(str(tmp_path)).put("k", snapshot)
            snapshot = SnapshotStore(str(tmp_path)).get("k")
            assert isinstance(snapshot, arena.ArenaSnapshot)
        return snapshot

    def test_clones_share_the_template_cache_schema(self, snapshot):
        one, two = snapshot.attach(), snapshot.attach()
        assert one.cache.relation.schema is two.cache.relation.schema
        if isinstance(snapshot, Snapshot):
            assert one.cache.relation.schema is CACHE_SCHEMA

    def test_dropped_clone_is_freed_without_the_cycle_collector(self, snapshot):
        gc.collect()
        gc.disable()
        try:
            clone = snapshot.attach()
            clone.cache.insert(1, 0, (1, 2), ((1,), (2,)), 8)
            cache = weakref.ref(clone.cache)
            del clone
            assert cache() is None
        finally:
            gc.enable()


def _deepcopy_calls(fn):
    """How many times ``copy.deepcopy`` ran (recursion included) in ``fn``."""
    code = copy.deepcopy.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


class TestOneClonePath:
    """Attach work follows the number of files; arena and fresh agree."""

    @pytest.mark.parametrize("procedural", [False, True])
    def test_attach_work_is_independent_of_page_count(self, procedural, tmp_path):
        counts, pages = [], []
        for scale in (0.05, 0.2):
            db = build_database(
                WorkloadParams().scaled(scale), procedural=procedural
            )
            pages.append(db.disk.total_pages())
            snapshot = Snapshot.freeze(db)
            store = SnapshotStore(str(tmp_path / ("s%s" % scale)))
            store.put("k", snapshot)
            revived = SnapshotStore(store.root).get("k")
            assert isinstance(revived, arena.ArenaSnapshot)
            counts.append(
                (_deepcopy_calls(snapshot.attach), _deepcopy_calls(revived.attach))
            )
        assert pages[1] > 3 * pages[0]
        assert counts[0] == counts[1]
        assert 0 < counts[0][0] < 400  # a few per file, none per page

    @pytest.mark.parametrize("strategy", ["DFS", "BFS"])
    def test_arena_attach_and_fresh_freeze_trace_identically(
        self, strategy, tiny_params, tmp_path
    ):
        params = tiny_params.replace(pr_update=0.3)
        snapshot = Snapshot.freeze(build_database(params))
        store = SnapshotStore(str(tmp_path))
        store.put("k", snapshot)
        revived = SnapshotStore(str(tmp_path)).get("k")
        assert isinstance(revived, arena.ArenaSnapshot)
        digests = []
        for source in (snapshot, revived):
            db = source.attach()
            tracer = Tracer(registry=MetricsRegistry(), keep_events=False)
            report = run_sequence(
                db, make_strategy(strategy), generate_sequence(params, db),
                tracer=tracer,
            )
            assert report.traced["events"] > 0
            digests.append(report.traced["digest"])
        assert digests[0] == digests[1]


class TestSnapshotStore:
    def _snapshot(self, tiny_params):
        return Snapshot.freeze(build_database(tiny_params))

    def test_roundtrip_through_disk(self, tiny_params, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert store.get("k") is None
        store.put("k", self._snapshot(tiny_params))
        assert store.get("k") is not None
        assert store.stats == {
            "disk_hits": 1,
            "misses": 1,
            "puts": 1,
            "corrupt": 0,
        }
        # A second store over the same root reads the file back.
        fresh = SnapshotStore(str(tmp_path))
        assert fresh.get("k") is not None
        assert fresh.stats["disk_hits"] == 1

    def test_store_keeps_nothing_resident(self, tiny_params, tmp_path):
        # The caller's handle is the only thing keeping an arena mapped.
        store = SnapshotStore(str(tmp_path))
        handle = store.put("k", self._snapshot(tiny_params))
        path = store._arena_path("k")
        del handle
        gc.collect()
        assert path not in arena.registry()._states

    def test_put_returns_the_arena_it_wrote(self, tiny_params, tmp_path):
        store = SnapshotStore(str(tmp_path))
        snapshot = self._snapshot(tiny_params)
        served = store.put("k", snapshot)
        assert isinstance(served, arena.ArenaSnapshot)
        assert served._state is arena.registry().load(store._arena_path("k"))
        # If the written arena cannot be re-loaded, the caller keeps
        # attaching the snapshot it gave; the file is left for the next
        # get to verify.
        _fault.install(
            FaultPlan([FaultSpec("snapshot.load", rate=1.0, count=1)], seed=1)
        )
        try:
            assert store.put("k", snapshot) is snapshot
        finally:
            _fault.clear()
        assert store.stats["corrupt"] == 0
        assert isinstance(store.get("k"), arena.ArenaSnapshot)

    def test_different_fingerprint_misses(self, tiny_params, tmp_path):
        old = SnapshotStore(str(tmp_path), fingerprint="a" * 64)
        old.put("k", self._snapshot(tiny_params))
        new = SnapshotStore(str(tmp_path), fingerprint="b" * 64)
        assert new.get("k") is None
        # The stale file stays visible for `repro dbcache ls` / `clear`.
        assert len(new.entries()) == 1

    def test_corrupt_file_is_a_miss(self, tiny_params, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.put("k", self._snapshot(tiny_params))
        path = store._arena_path("k")
        with open(path, "wb") as handle:
            handle.write(b"not an arena")
        # Model a fresh process: the writer's registry pins the
        # pre-damage mapping, a new process parses the file anew.
        arena.registry().discard(path)
        fresh = SnapshotStore(str(tmp_path))
        assert fresh.get("k") is None
        assert fresh.stats["misses"] == 1
        assert fresh.stats["corrupt"] == 1
        assert os.path.exists(path + ".corrupt")

    def test_clear_and_bytes_on_disk(self, tiny_params, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.put("k", self._snapshot(tiny_params))
        assert store.bytes_on_disk() > 0
        assert store.clear() == 1
        assert store.bytes_on_disk() == 0
        assert store.entries() == []

    def test_stale_foreign_files_are_listed_and_cleared(self, tmp_path):
        # Whatever an older checkout left under the db- prefix is stale
        # cache, whatever its suffix: visible to `ls`, gone after `clear`.
        (tmp_path / "db-0123456789ab-k.pkl").write_bytes(b"old format")
        (tmp_path / "db-0123456789ab-k.arena.corrupt").write_bytes(b"evidence")
        store = SnapshotStore(str(tmp_path))
        assert [name for name, _, _ in store.entries()] == ["db-0123456789ab-k.pkl"]
        assert store.clear() == 2
        assert os.listdir(str(tmp_path)) == []


def test_put_over_a_loaded_key_serves_the_new_bytes(tiny_params, tmp_path):
    """A re-``put`` replaces what every later ``get`` in the process sees.

    The arena registry maps a path once per process; a put over a path
    it already mapped must not leave the old inode answering.
    """
    def marked(value):
        db = build_database(tiny_params)
        rel_index, keys = db.unit_ref_of(db.fetch_parent(1))
        db.apply_update([(rel_index, keys[0])], value)
        return Snapshot.freeze(db), rel_index, keys[0]

    store = SnapshotStore(str(tmp_path))
    first, rel_index, key = marked(111)
    store.put("k", first)
    ret1 = first._db.child_schema.field_index("ret1")
    assert store.get("k").attach().fetch_child(rel_index, key)[ret1] == 111
    second, _, _ = marked(222)
    store.put("k", second)
    for reader in (store, SnapshotStore(str(tmp_path))):
        served = reader.get("k")
        assert isinstance(served, arena.ArenaSnapshot)
        assert served.attach().fetch_child(rel_index, key)[ret1] == 222
