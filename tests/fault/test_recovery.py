"""Recovery machinery: retries, quarantine, cache self-healing, degradation.

The invariant under test everywhere: a fault changes *whether work is
redone*, never *what a measurement says*.  Faulted sweeps must produce
results equal to undisturbed ones, except for cells that exhaust their
retry budget — and those must surface as quarantined :class:`FailedPoint`
cells instead of sinking the sweep.
"""

import dataclasses
import json
import math
import multiprocessing
import os
import shutil
import time

import pytest

from repro.errors import SweepInterrupted
from repro.experiments import pool
from repro.experiments.pool import (
    FailedPoint,
    PointCache,
    RetryPolicy,
    SweepPoint,
    run_sweep,
)
from repro.fault import plan as fault_plan
from repro.fault.plan import FaultPlan, FaultSpec
from repro.storage.snapshot import Snapshot, SnapshotStore
from repro.workload.driver import CostReport
from repro.workload.generator import build_database
from repro.workload.params import WorkloadParams

FAST = RetryPolicy(max_retries=2, backoff_seconds=0.001)


@pytest.fixture(autouse=True)
def no_active_plan():
    fault_plan.clear()
    yield
    fault_plan.clear()


def _points(params, n=2):
    return [
        SweepPoint(
            params=params.replace(num_top=num_top), strategy="BFS", num_retrieves=3
        )
        for num_top in (2, 5, 10, 20)[:n]
    ]


def _last_faults():
    return pool.SWEEP_LOG[-1]["faults"]


class TestRetry:
    def test_transient_fault_is_retried_to_an_identical_result(self, tiny_params):
        baseline = run_sweep(_points(tiny_params), policy=FAST)
        fault_plan.install(FaultPlan([FaultSpec("point.poison", count=1)]))
        faulted = run_sweep(_points(tiny_params), policy=FAST)
        assert [dataclasses.asdict(r) for r in faulted] == [
            dataclasses.asdict(r) for r in baseline
        ]
        faults = _last_faults()
        assert faults["injections"] == {"point.poison": 1}
        assert faults["retries"] == 1
        assert faults["quarantined"] == []

    def test_disk_fault_mid_measurement_is_retried(self, tiny_params):
        baseline = run_sweep(_points(tiny_params, n=1), policy=FAST)
        # Unlike point.poison (which fires before any work), a disk fault
        # interrupts a half-done measurement; the retry must still match.
        fault_plan.install(FaultPlan([FaultSpec("disk.read", count=1)]))
        faulted = run_sweep(_points(tiny_params, n=1), policy=FAST)
        assert dataclasses.asdict(faulted[0]) == dataclasses.asdict(baseline[0])
        assert _last_faults()["retries"] == 1

    def test_serial_deadline_counts_a_timeout_then_recovers(
        self, tiny_params, monkeypatch
    ):
        real = pool.execute_point
        calls = []

        def slow_once(point, db_cache=None):
            calls.append(point)
            if len(calls) == 1:
                time.sleep(0.5)
            return real(point, db_cache)

        monkeypatch.setattr(pool, "execute_point", slow_once)
        results = run_sweep(
            _points(tiny_params, n=1),
            policy=RetryPolicy(
                max_retries=2, backoff_seconds=0.001, point_timeout=0.1
            ),
        )
        assert isinstance(results[0], CostReport)
        faults = _last_faults()
        assert faults["timeouts"] == 1
        assert faults["retries"] == 1


class TestQuarantine:
    def test_retry_exhaustion_quarantines_without_sinking_the_sweep(
        self, tiny_params, tmp_path
    ):
        # Two poison firings, one-retry budget: the first point burns
        # both attempts and is quarantined; the second runs clean.
        fault_plan.install(FaultPlan([FaultSpec("point.poison", count=2)]))
        cache = PointCache(str(tmp_path / "pc"))
        points = _points(tiny_params, n=2)
        results = run_sweep(
            points,
            cache=cache,
            policy=RetryPolicy(max_retries=1, backoff_seconds=0.001),
        )
        assert isinstance(results[0], FailedPoint)
        assert results[0].attempts == 2
        assert isinstance(results[1], CostReport)
        faults = _last_faults()
        assert faults["quarantined"] == [pool.point_label(points[0])]
        assert faults["injections"] == {"point.poison": 2}

        # Degraded cells render as NaN instead of crashing table code...
        assert math.isnan(results[0].avg_io_per_retrieve)
        assert math.isnan(results[0].retrieve_io)
        # ...and are never checkpointed: a rerun retries them fresh.
        assert cache.stores == 1
        fault_plan.clear()
        rerun = run_sweep(points, cache=cache, policy=FAST)
        assert all(isinstance(r, CostReport) for r in rerun)
        assert cache.hits == 1

    def test_malformed_points_fail_immediately_without_retries(self, tiny_params):
        bad = SweepPoint(
            params=tiny_params, strategy="BFS", sequence="mixed", num_retrieves=3
        )  # mixed sequence without mix_num_tops: no retry can fix it
        results = run_sweep([bad], policy=FAST)
        assert isinstance(results[0], FailedPoint)
        assert _last_faults()["retries"] == 0


class TestPointCacheSelfHealing:
    def _seed_cache(self, tmp_path, params, n=2):
        cache = PointCache(str(tmp_path / "pc"))
        baseline = run_sweep(_points(params, n=n), cache=cache, policy=FAST)
        names = [
            name for name in os.listdir(cache.dir) if name.endswith(".json")
        ]
        assert len(names) == n
        return cache, baseline, names

    def test_bitflipped_entry_is_quarantined_and_rebuilt(
        self, tiny_params, tmp_path
    ):
        cache, baseline, names = self._seed_cache(tmp_path, tiny_params)
        victim = os.path.join(cache.dir, names[0])
        blob = bytearray(open(victim, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(victim, "wb").write(bytes(blob))

        reloaded = PointCache(cache.root)
        assert len(reloaded) == 1
        assert reloaded.corrupt == 1
        assert os.path.exists(victim + ".corrupt")

        # The missing point recomputes deterministically and re-stores.
        healed = run_sweep(_points(tiny_params), cache=reloaded, policy=FAST)
        assert [dataclasses.asdict(r) for r in healed] == [
            dataclasses.asdict(r) for r in baseline
        ]
        assert (reloaded.hits, reloaded.stores) == (1, 1)
        assert len(PointCache(cache.root)) == 2

    def test_zero_byte_entry_is_a_miss(self, tiny_params, tmp_path):
        cache, _baseline, names = self._seed_cache(tmp_path, tiny_params)
        open(os.path.join(cache.dir, names[0]), "wb").close()
        reloaded = PointCache(cache.root)
        assert len(reloaded) == 1
        assert reloaded.corrupt == 1

    def test_writes_leave_no_temp_droppings(self, tiny_params, tmp_path):
        cache, _baseline, _names = self._seed_cache(tmp_path, tiny_params)
        leftovers = [n for n in os.listdir(cache.dir) if n.startswith(".tmp-")]
        assert leftovers == []

    def test_unwritable_cache_downgrades_to_memory_only(
        self, tiny_params, tmp_path
    ):
        fault_plan.install(FaultPlan([FaultSpec("pointcache.save", count=1)]))
        cache = PointCache(str(tmp_path / "pc"))
        results = run_sweep(_points(tiny_params), cache=cache, policy=FAST)
        assert all(isinstance(r, CostReport) for r in results)
        assert cache.persistent is False
        assert cache.downgrades == 1
        assert len(cache) == 2  # memory still answers within the run
        assert _last_faults()["downgrades"] >= 1


def _point_cache_writer(root, _params):
    """``(write(n), entry path)`` for a point cache under ``root``."""
    cache = PointCache(root)
    return (
        lambda n: cache._write_entry("k", {"n": n}),
        os.path.join(cache.dir, "k.json"),
    )


def _snapshot_store_writer(root, params):
    """``(write(n), entry path)`` for a snapshot store under ``root``."""
    store = SnapshotStore(root)
    return (
        lambda n: store.put(
            "k", Snapshot.freeze(build_database(params.replace(seed=n)))
        ),
        store._arena_path("k"),
    )


class TestDurableWrite:
    """Both on-disk caches write through one routine: a write that fails
    at its fsync leaves no temporary file and the earlier entry intact."""

    @pytest.mark.parametrize(
        "writer", [_point_cache_writer, _snapshot_store_writer]
    )
    def test_failed_fsync_keeps_the_earlier_entry(
        self, writer, tiny_params, tmp_path, monkeypatch
    ):
        root = str(tmp_path / "cache")
        write, path = writer(root, tiny_params)
        write(1)
        with open(path, "rb") as handle:
            before = handle.read()

        def failing_fsync(fd):
            raise OSError("fsync failed")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="fsync failed"):
            write(2)
        monkeypatch.undo()
        directory = os.path.dirname(path)
        assert [n for n in os.listdir(directory) if n.startswith(".tmp-")] == []
        with open(path, "rb") as handle:
            assert handle.read() == before
        if writer is _point_cache_writer:
            assert PointCache(root).get("k") == {"n": 1}
        else:
            assert SnapshotStore(root).get("k") is not None


class TestStoreDegradation:
    def test_snapshot_store_fault_degrades_persistence_not_the_run(
        self, tiny_params, tmp_path
    ):
        from repro.experiments.runner import DatabaseCache

        fault_plan.install(FaultPlan([FaultSpec("snapshot.save", count=1)]))
        cache = DatabaseCache(store=SnapshotStore(str(tmp_path / "db")))
        first = cache.get(tiny_params)
        assert first is not None
        assert cache.store is None  # persistence dropped...
        assert cache.downgrades == 1
        second = cache.get(tiny_params)  # ...but every get is still a clone
        assert second is not first
        assert (cache.builds, cache.attaches) == (1, 2)


class TestOneFaultOneCount:
    def test_store_faults_are_counted_once_under_faults(self, tmp_path):
        """A degraded snapshot store and a corrupt point-cache entry each
        count once, in ``faults``; ``db``/``point_cache`` carry traffic."""
        from repro.__main__ import main

        out = tmp_path / "out"
        argv = ["report", "--scale", "0.05", "--out", str(out),
                "--only", "ablation_buffer_policy", "--no-ledger"]
        bench = tmp_path / "record.json"
        try:
            assert main(argv) == 0
            # The next run rebuilds every shape it needs (its put fails)
            # and finds one damaged checkpoint.
            shutil.rmtree(out / ".dbcache")
            victim = sorted((out / ".pointcache").glob("points-*/*.json"))[0]
            blob = bytearray(victim.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            victim.write_bytes(bytes(blob))
            fault_plan.install(FaultPlan([FaultSpec("snapshot.save", count=1)]))
            sweeps_before = len(pool.SWEEP_LOG)
            assert main(argv + ["--bench-out", str(bench)]) == 0
        finally:
            pool.configure_db_store(None)
        sweeps = pool.SWEEP_LOG[sweeps_before:]
        record = json.loads(bench.read_text())
        (row,) = record["experiments"]
        for faults in [record["faults"], row["faults"]]:
            assert faults["injections"] == {"snapshot.save": 1}
            assert (faults["downgrades"], faults["cache_corrupt"]) == (1, 1)
        assert sum(s["faults"]["downgrades"] for s in sweeps) == 1
        assert sum(s["faults"]["cache_corrupt"] for s in sweeps) == 1
        for db in [record["db"], row["db"]] + [s["db"] for s in sweeps]:
            assert not {"downgrades", "corrupt", "cache_corrupt"} & set(db)
        assert set(record["point_cache"]) == {"hits", "misses", "stores"}
        assert record["point_cache"]["misses"] == 1  # the quarantined entry


class TestInterrupt:
    def test_ctrl_c_raises_sweep_interrupted_and_keeps_checkpoints(
        self, tiny_params, tmp_path, monkeypatch
    ):
        real = pool.execute_point
        calls = []

        def interrupt_second(point, db_cache=None):
            calls.append(point)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(point, db_cache)

        monkeypatch.setattr(pool, "execute_point", interrupt_second)
        cache = PointCache(str(tmp_path / "pc"))
        points = _points(tiny_params, n=3)
        with pytest.raises(SweepInterrupted) as excinfo:
            run_sweep(points, cache=cache, policy=FAST)
        assert (excinfo.value.completed, excinfo.value.total) == (1, 3)

        # Rerun resumes: the completed point comes from the checkpoint.
        monkeypatch.setattr(pool, "execute_point", real)
        resumed = run_sweep(points, cache=cache, policy=FAST)
        assert all(isinstance(r, CostReport) for r in resumed)
        assert cache.hits == 1
        assert pool.SWEEP_LOG[-1]["cache_hits"] == 1


class TestPoolRecovery:
    def test_worker_crashes_restart_the_pool_and_results_match_serial(
        self, tiny_params
    ):
        # Every worker finishes one task, then dies on its second; the
        # parent must rebuild the pool until the sweep completes.
        serial = run_sweep(_points(tiny_params, n=4), policy=FAST)
        fault_plan.install(
            FaultPlan([FaultSpec("worker.crash", rate=1.0, count=1, after=1)])
        )
        parallel = run_sweep(_points(tiny_params, n=4), jobs=2, policy=FAST)
        assert [dataclasses.asdict(r) for r in parallel] == [
            dataclasses.asdict(r) for r in serial
        ]
        assert _last_faults()["pool_restarts"] >= 1
        assert _last_faults()["quarantined"] == []

    def test_hung_worker_is_detected_charged_and_redispatched(self, tiny_params):
        # 3 tasks over 2 workers: whichever worker draws a second task
        # hangs on it (after=1); the parent watchdog times it out, tears
        # the pool down, and a fresh worker completes the point.
        fault_plan.install(
            FaultPlan(
                [FaultSpec("worker.hang", rate=1.0, count=1, after=1)],
                hang_seconds=5.0,
            )
        )
        results = run_sweep(
            _points(tiny_params, n=3),
            jobs=2,
            policy=RetryPolicy(
                max_retries=2, backoff_seconds=0.001, point_timeout=0.4
            ),
        )
        assert all(isinstance(r, CostReport) for r in results)
        faults = _last_faults()
        assert faults["timeouts"] >= 1
        assert faults["pool_restarts"] >= 1
        assert faults["quarantined"] == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers must inherit the patched build",
    )
    def test_watchdog_leaves_a_worker_its_own_retries(self, monkeypatch):
        # Each process's first build outlasts the point deadline, so a
        # point's first attempt times out and its retry, on a clone of
        # the template that build left, succeeds.  The parent watchdog
        # must grant a pool task those retries, as the in-process
        # executor does; a worker killed at the first deadline takes
        # its template with it and its successor times out the same way.
        from repro.experiments import runner

        real = runner.build_database
        slept = set()

        def slow_first_build(*args, **kwargs):
            if os.getpid() not in slept:
                slept.add(os.getpid())
                time.sleep(0.6)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "build_database", slow_first_build)
        params = WorkloadParams().scaled(0.01)
        points = [
            SweepPoint(
                params=params.replace(num_top=num_top), strategy="DFS",
                num_retrieves=3,
            )
            for num_top in (2, 5, 10)
        ]
        policy = RetryPolicy(max_retries=2, backoff_seconds=0.001, point_timeout=0.4)
        for jobs in (1, 2):
            results = run_sweep(points, jobs=jobs, policy=policy)
            assert all(isinstance(r, CostReport) for r in results), jobs
            assert _last_faults()["quarantined"] == [], jobs
            assert _last_faults()["timeouts"] >= 1, jobs
