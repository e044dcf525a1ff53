"""Mmap snapshot arenas: round trip, corruption recovery, COW, zero-pickle,
registry lifetime."""

import gc
import os
import pickle
import weakref

import pytest

from repro.core.strategies.base import make_strategy
from repro.obs import MetricsRegistry, Tracer
from repro.storage import arena
from repro.storage.arena import ArenaSnapshot, build_arena
from repro.storage.page import Page
from repro.storage.snapshot import Snapshot, SnapshotStore
from repro.workload.driver import run_sequence
from repro.workload.generator import build_database
from repro.workload.queries import generate_sequence


@pytest.fixture
def frozen_db(tiny_params):
    return Snapshot.freeze(build_database(tiny_params))._db


@pytest.fixture
def arena_path(frozen_db, tmp_path):
    path = str(tmp_path / "db.arena")
    with open(path, "wb") as handle:
        handle.write(build_arena(frozen_db))
    return path


def _load(path):
    # Bypass the process-wide registry so every test sees a fresh parse.
    return arena._load_state(path)


def _frozen_pages(db):
    return [
        page
        for pages in db.disk._files.values()
        for page in pages
        if page.frozen
    ]


class TestRoundTrip:
    def test_every_page_image_round_trips_exactly(self, frozen_db, arena_path):
        state = _load(arena_path)
        originals = {p.page_id: p for p in _frozen_pages(frozen_db)}
        assert len(state._stubs) == len(originals) > 0
        assert any(s.codec is None for s in state._stubs)  # blob/index pages too
        for stub in state._stubs:
            original = originals[stub.page_id]
            if stub.codec is not None:
                # Codec pages: the raw slotted image, byte for byte.
                assert bytes(stub._buf) == bytes(original.to_bytes())
            else:
                # Codec-less pages: the pickled lists revive exactly.
                assert stub.record_batch() == original.record_batch()
                assert stub._sizes == original._sizes
            assert stub.used_bytes == original.used_bytes
            assert stub.version == original.version
            assert stub.frozen

    def test_stub_buffers_are_views_into_the_mapping(self, arena_path):
        state = _load(arena_path)
        assert all(type(s._buf) is memoryview for s in state._stubs)
        assert all(s.records is None for s in state._stubs)  # still lazy

    def test_attached_clone_answers_queries_like_the_original(
        self, frozen_db, arena_path
    ):
        clone = _load(arena_path).attach()
        rel_index, keys = clone.unit_ref_of(clone.fetch_parent(1))
        original = Snapshot(frozen_db).attach()
        assert clone.fetch_child(rel_index, keys[0]) == original.fetch_child(
            rel_index, keys[0]
        )

    def test_clone_shares_stub_pages_across_attaches(self, arena_path):
        state = _load(arena_path)
        one, two = state.attach(), state.attach()
        page_one = next(
            p for ps in one.disk._files.values() for p in ps if p.codec is not None
        )
        page_two = two.disk._files[page_one.page_id.file_id][page_one.page_id.page_no]
        assert page_one is page_two  # same stub: shared decode cache

    def test_stub_pages_survive_pickling(self, arena_path):
        # A clone's frozen stub holds a memoryview into the mmap; pickling
        # (e.g. a debugging dump) must transparently materialize bytes.
        stub = _load(arena_path)._stubs[0]
        revived = pickle.loads(pickle.dumps(stub))
        assert list(revived.iter_records()) == list(stub.iter_records())


class TestCorruption:
    def _flip(self, path, offset):
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))

    def test_bad_magic_is_corrupt(self, arena_path):
        self._flip(arena_path, 0)
        with pytest.raises(Exception):
            _load(arena_path)

    def test_flipped_index_byte_is_corrupt(self, arena_path):
        # Just past the header JSON: inside the checksummed index region.
        size = os.path.getsize(arena_path)
        self._flip(arena_path, min(600, size - 1))
        with pytest.raises(Exception):
            _load(arena_path)

    def test_truncation_is_corrupt(self, arena_path):
        size = os.path.getsize(arena_path)
        with open(arena_path, "r+b") as handle:
            handle.truncate(size - 1)
        with pytest.raises(Exception):
            _load(arena_path)

    def test_store_quarantines_and_rebuilds(self, tiny_params, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.put("k", Snapshot.freeze(build_database(tiny_params)))
        path = store._arena_path("k")
        with open(path, "r+b") as handle:
            handle.truncate(32)
        # The writing store still holds the pre-damage mapping, so the
        # registry would hand it out; drop the registration to model a
        # fresh process meeting the damaged file.
        arena.registry().discard(path)
        fresh = SnapshotStore(str(tmp_path))
        assert fresh.get("k") is None  # miss: caller rebuilds
        assert fresh.stats["corrupt"] == 1
        assert os.path.exists(path + ".corrupt")
        # The deterministic rebuild overwrites the quarantined entry.
        fresh.put("k", Snapshot.freeze(build_database(tiny_params)))
        again = SnapshotStore(str(tmp_path))
        assert isinstance(again.get("k"), ArenaSnapshot)


class TestCowIsolation:
    def test_clone_mutation_is_invisible_to_other_clones(self, arena_path):
        state = _load(arena_path)
        one, two = state.attach(), state.attach()
        rel_index, keys = one.unit_ref_of(one.fetch_parent(1))
        key = keys[0]
        ret1 = one.child_schema.field_index("ret1")
        before = two.fetch_child(rel_index, key)
        one.apply_update([(rel_index, key)], 424242)
        assert one.fetch_child(rel_index, key)[ret1] == 424242
        assert two.fetch_child(rel_index, key) == before

    def test_mutation_never_touches_the_mapped_images(self, arena_path):
        state = _load(arena_path)
        images_before = [bytes(s._buf) for s in state._stubs]
        clone = state.attach()
        rel_index, keys = clone.unit_ref_of(clone.fetch_parent(1))
        clone.apply_update([(rel_index, keys[0])], 999)
        assert [bytes(s._buf) for s in state._stubs] == images_before
        assert all(s.frozen for s in state._stubs)


class TestZeroPickle:
    def test_arena_round_trip_pickles_zero_payload_bytes(
        self, frozen_db, tmp_path, monkeypatch
    ):
        # Zero-copy, countably: writing the arena of a frozen database,
        # loading it back and attaching serializes no page through
        # pickle — images are copied out raw and the metadata blob names
        # pages by index position.
        calls = []
        getstate = Page.__getstate__

        def counting_getstate(page):
            calls.append(page.page_id)
            return getstate(page)

        monkeypatch.setattr(Page, "__getstate__", counting_getstate)
        assert len(_frozen_pages(frozen_db)) > 0
        path = tmp_path / "db.arena"
        path.write_bytes(build_arena(frozen_db))
        _load(str(path)).attach()
        assert calls == []


class TestRegistryConcurrency:
    """Regression: parallel attaches must never remap the same arena."""

    def test_parallel_loads_parse_the_file_exactly_once(
        self, arena_path, monkeypatch
    ):
        import threading

        parses = []
        real_load = arena._load_state

        def counting_load(path):
            parses.append(path)
            return real_load(path)

        monkeypatch.setattr(arena, "_load_state", counting_load)
        registry = arena.ArenaRegistry()
        barrier = threading.Barrier(8)
        states = [None] * 8

        def attach(index):
            barrier.wait()
            states[index] = registry.load(arena_path)

        threads = [
            threading.Thread(target=attach, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(parses) == 1
        assert all(state is states[0] for state in states)
        registry.clear()


def _dfs_run(db, params):
    """``(retrieve I/O, trace digest)`` of a traced DFS sequence on ``db``."""
    tracer = Tracer(registry=MetricsRegistry(), keep_events=False)
    report = run_sequence(
        db, make_strategy("DFS"), generate_sequence(params, db), tracer=tracer
    )
    return report.retrieve_io, report.traced["digest"]


class TestRegistryLifetime:
    """The registry holds states weakly; clones keep only the mapping."""

    def test_clone_outlives_every_handle(self, tiny_params, tmp_path, monkeypatch):
        store = SnapshotStore(str(tmp_path))
        store.put("k", Snapshot.freeze(build_database(tiny_params)))
        path = store._arena_path("k")
        handle = store.get("k")
        state = weakref.ref(handle._state)
        mapping = weakref.ref(handle._state._mmap)
        clone_a, clone_b = handle.attach(), handle.attach()
        expected = _dfs_run(clone_b, tiny_params)

        del handle, clone_b
        arena.registry().discard(path)
        store._memory.clear()
        gc.collect()
        # No handle is left, so the state is gone, but clone A's stub
        # pages still view the mapping and answer exactly like B did.
        assert state() is None
        assert mapping() is not None
        assert _dfs_run(clone_a, tiny_params) == expected
        del clone_a
        gc.collect()
        assert mapping() is None

        parses = []
        real_load = arena._load_state

        def counting_load(load_path):
            parses.append(load_path)
            return real_load(load_path)

        monkeypatch.setattr(arena, "_load_state", counting_load)
        assert store.get("k") is not None
        assert parses == [path]
