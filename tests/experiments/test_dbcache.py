"""The database snapshot store inside the sweep engine.

The store must be invisible in the measurements: a point executed
against a snapshot-attached clone has to produce the exact event stream
(PR 2's trace digest) of one executed against a freshly built database.
These tests pin that for every registered strategy, and exercise the
process-shared on-disk store the way the report runner uses it —
serially, across runs, and from parallel workers.
"""

import dataclasses
import gc

import pytest

from repro.core.strategies.base import REGISTRY
from repro.experiments import pool
from repro.experiments.pool import SweepPoint, run_sweep
from repro.experiments.runner import DatabaseCache
from repro.storage import arena
from repro.storage.snapshot import SnapshotStore
from repro.workload.params import WorkloadParams

#: The scale the acceptance criterion names: 2,000 parents.
SCALE = 0.2


@pytest.fixture
def store_guard():
    """Restore the module-global store configuration after the test."""
    previous = pool.DB_STORE_ROOT
    yield
    pool.configure_db_store(previous)


def _point(params, strategy, **kwargs):
    kwargs.setdefault("db_procedural", strategy.startswith("PROC"))
    kwargs.setdefault("num_retrieves", 3)
    return SweepPoint(params=params, strategy=strategy, traced=True, **kwargs)


class TestDigestEquality:
    """Fresh build and snapshot attach are bit-identical, per strategy."""

    @pytest.mark.parametrize("strategy", sorted(REGISTRY))
    def test_attach_replays_fresh_build_exactly(self, strategy, tmp_path):
        params = WorkloadParams().scaled(SCALE)
        point = _point(params, strategy)
        fresh = pool.execute_point(point, DatabaseCache())
        # Cold: miss -> build -> freeze -> attach;  warm: disk hit -> attach.
        cold = pool.execute_point(
            point, DatabaseCache(store=SnapshotStore(str(tmp_path)))
        )
        warm = pool.execute_point(
            point, DatabaseCache(store=SnapshotStore(str(tmp_path)))
        )
        assert cold["traced"]["digest"] == fresh["traced"]["digest"]
        assert warm["traced"]["digest"] == fresh["traced"]["digest"]
        assert cold == fresh
        assert warm == fresh

    @pytest.mark.parametrize("strategy", ["BFS", "DFSCACHE", "PROC-CACHE-OIDS"])
    def test_every_attach_path_agrees(self, strategy, tmp_path):
        """Fresh build and attach from the stored arena: one digest."""
        params = WorkloadParams().scaled(SCALE)
        point = _point(params, strategy)
        fresh = pool.execute_point(point, DatabaseCache())
        root = str(tmp_path)
        # Populate, then re-open so the point really attaches from disk.
        pool.execute_point(point, DatabaseCache(store=SnapshotStore(root)))
        warm = DatabaseCache(store=SnapshotStore(root))
        result = pool.execute_point(point, warm)
        assert warm.builds == 0
        assert warm.arena_attaches == warm.attaches == 1
        assert result["traced"]["digest"] == fresh["traced"]["digest"]
        assert result == fresh


class TestDatabaseCacheWithStore:
    def test_miss_builds_then_hit_attaches(self, tiny_params, tmp_path):
        store = SnapshotStore(str(tmp_path))
        cold = DatabaseCache(store=store)
        cold.get(tiny_params)
        assert (cold.builds, cold.attaches) == (1, 1)

        warm = DatabaseCache(store=SnapshotStore(str(tmp_path)))
        warm.get(tiny_params)
        assert (warm.builds, warm.attaches) == (0, 1)
        assert warm.store.stats["disk_hits"] == 1

    def test_every_get_attaches_a_fresh_clone(self, tiny_params, tmp_path):
        """Snapshot mode hands out pristine state per point.

        History independence — no point ever sees another point's
        mutations — is what makes retried/re-dispatched/resumed points
        replay bit-identically under fault injection.
        """
        cache = DatabaseCache(store=SnapshotStore(str(tmp_path)))
        first = cache.get(tiny_params)
        second = cache.get(tiny_params)
        assert second is not first
        assert cache.attaches == 2
        # ...but the expensive work happened exactly once.
        assert cache.builds == 1
        assert cache.store.stats["puts"] == 1

    def test_stats_snapshot_merges_store_counters(self, tiny_params, tmp_path):
        cache = DatabaseCache(store=SnapshotStore(str(tmp_path)))
        cache.get(tiny_params)
        stats = cache.stats_snapshot()
        assert stats["builds"] == 1
        assert stats["puts"] == 1
        assert stats["build_seconds"] > 0
        assert stats["attach_seconds"] > 0

    def test_deep_databases_go_through_the_store(self, tmp_path):
        from repro.workload.deepgen import DeepParams

        params = DeepParams(num_roots=40, depth=2, use_factor=3, buffer_pages=20)
        cold = DatabaseCache(store=SnapshotStore(str(tmp_path)))
        cold.get_deep(params)
        assert (cold.builds, cold.attaches) == (1, 1)
        warm = DatabaseCache(store=SnapshotStore(str(tmp_path)))
        warm.get_deep(params)
        assert (warm.builds, warm.attaches) == (0, 1)


class TestSweepTelemetry:
    def test_serial_sweep_records_build_attach_split(
        self, tiny_params, tmp_path, store_guard
    ):
        pool.configure_db_store(str(tmp_path / "dbcache"))
        run_sweep([_point(tiny_params, "BFS")])
        entry = pool.SWEEP_LOG[-1]
        assert entry["db"]["builds"] == 1
        assert entry["db"]["attaches"] == 1
        assert entry["db"]["attach_seconds"] >= 0

    def test_second_sweep_attaches_without_building(
        self, tiny_params, tmp_path, store_guard
    ):
        pool.configure_db_store(str(tmp_path / "dbcache"))
        run_sweep([_point(tiny_params, "BFS")])
        run_sweep([_point(tiny_params, "BFS", num_retrieves=4)])
        entry = pool.SWEEP_LOG[-1]
        assert entry["db"]["builds"] == 0
        assert entry["db"]["attaches"] == 1
        assert entry["db"]["memory_hits"] + entry["db"]["disk_hits"] == 1

    def test_arena_attaches_pickle_zero_payload_bytes(
        self, tiny_params, tmp_path, store_guard
    ):
        """End to end through the sweep engine: a warm store-backed
        sweep builds nothing and every attach comes from the arena."""
        pool.configure_db_store(str(tmp_path / "dbcache"))
        run_sweep([_point(tiny_params, "BFS")])
        run_sweep([_point(tiny_params, "BFS", num_retrieves=4)])
        entry = pool.SWEEP_LOG[-1]
        assert entry["db"]["builds"] == 0
        assert entry["db"]["arena_attaches"] == entry["db"]["attaches"] == 1


class TestBoundedResidency:
    def test_sweep_keeps_a_bounded_set_of_arenas_mapped(
        self, tiny_params, tmp_path, store_guard, monkeypatch
    ):
        """Six shapes visited A B C D E F A: at most the cache bound stays
        mapped, and the re-parsed A measures exactly like the first A."""
        shapes = [tiny_params.replace(seed=seed) for seed in range(1, 7)]
        points = [_point(params, "DFS") for params in shapes + shapes[:1]]
        mapped = []
        real_load = arena._load_state

        def counting_load(path):
            state = real_load(path)  # a cold miss raises FileNotFoundError
            mapped.append(path)
            return state

        monkeypatch.setattr(arena, "_load_state", counting_load)
        root = str(tmp_path / "bounded")
        pool.configure_db_store(root)
        bounded = run_sweep(points)
        gc.collect()
        live = [path for path in arena.registry()._states if path.startswith(root)]
        assert len(live) <= pool.WORKER_DB_CACHE_SIZE
        # Six puts map their arena; A fell out of every holder and was
        # mapped again from its file.
        assert len(mapped) == 7

        monkeypatch.setattr(pool, "WORKER_DB_CACHE_SIZE", None)
        pool.configure_db_store(str(tmp_path / "unbounded"))
        assert run_sweep(points) == bounded


class TestSharedStoreAcrossWorkers:
    def _points(self, params):
        # Measured reports are invariant to database reuse (the engine's
        # determinism contract), so the store-backed parallel run and the
        # store-less serial run compare exactly.  Traces are not compared
        # across that boundary: store-less points reuse mutated databases,
        # so their unmeasured reset-flush events depend on what ran before
        # (snapshot-mode points always attach pristine clones and don't).
        return [
            SweepPoint(
                params=params.replace(num_top=num_top),
                strategy=strategy,
                num_retrieves=3,
            )
            for num_top in (2, 10)
            for strategy in ("DFS", "BFS", "DFSCACHE")
        ]

    def test_jobs2_matches_serial_and_populates_one_store(
        self, tiny_params, tmp_path, store_guard
    ):
        root = str(tmp_path / "dbcache")
        pool.configure_db_store(root)
        parallel = run_sweep(self._points(tiny_params), jobs=2)
        parallel_entry = pool.SWEEP_LOG[-1]

        pool.configure_db_store(None)
        serial = run_sweep(self._points(tiny_params), jobs=1)
        assert [dataclasses.asdict(r) for r in parallel] == [
            dataclasses.asdict(r) for r in serial
        ]
        # Both workers fed the one on-disk store (2 shapes: plain, cached).
        assert len(SnapshotStore(root).entries()) == 2
        assert parallel_entry["db"]["attaches"] >= 2

    def test_warm_store_spares_workers_every_build(
        self, tiny_params, tmp_path, store_guard
    ):
        pool.configure_db_store(str(tmp_path / "dbcache"))
        run_sweep(self._points(tiny_params), jobs=2)
        run_sweep(
            [
                dataclasses.replace(p, num_retrieves=4)
                for p in self._points(tiny_params)
            ],
            jobs=2,
        )
        entry = pool.SWEEP_LOG[-1]
        assert entry["db"]["builds"] == 0
        assert entry["db"]["disk_hits"] + entry["db"]["memory_hits"] > 0
