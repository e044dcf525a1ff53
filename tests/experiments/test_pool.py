"""The sweep engine: determinism, parallel fan-out, and the point cache."""

import dataclasses

import pytest

from repro.experiments import pool
from repro.experiments.pool import PointCache, SweepPoint, point_key, run_sweep
from repro.experiments.runner import DatabaseCache
from repro.fault import plan as fault_plan
from repro.fault.plan import FaultPlan, FaultSpec
from repro.workload.params import WorkloadParams


@pytest.fixture
def params(tiny_params):
    return tiny_params


def _point(params, strategy="BFS", **kwargs):
    return SweepPoint(params=params, strategy=strategy, num_retrieves=4, **kwargs)


class TestDeterminism:
    def test_same_point_twice_through_one_database_cache(self, params):
        """Re-running a point through one database cache is bit-identical:
        each run gets its own clone, so nothing the first left behind can
        shift the second."""
        db_cache = DatabaseCache()
        first = pool.execute_point(_point(params), db_cache)
        second = pool.execute_point(_point(params), db_cache)
        assert first == second

    def test_reused_database_matches_fresh_database(self, params):
        point = _point(params, strategy="DFSCACHE")
        shared = DatabaseCache()
        pool.execute_point(_point(params, strategy="DFSCACHE"), shared)
        reused = pool.execute_point(point, shared)
        fresh = pool.execute_point(point, DatabaseCache())
        assert reused == fresh

    def test_parallel_run_matches_serial(self, params):
        points = [
            _point(params.replace(num_top=num_top), strategy)
            for num_top in (2, 10)
            for strategy in ("DFS", "BFS", "DFSCACHE")
        ]
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=2)
        assert [dataclasses.asdict(r) for r in serial] == [
            dataclasses.asdict(r) for r in parallel
        ]

    def test_bounded_worker_cache_does_not_change_results(self, params):
        point = _point(params)
        unbounded = pool.execute_point(point, DatabaseCache())
        bounded = pool.execute_point(point, DatabaseCache(max_entries=1))
        assert unbounded == bounded


class TestRunSweep:
    def test_results_in_input_order(self, params):
        points = [
            _point(params.replace(num_top=num_top), name)
            for num_top in (10, 2)
            for name in ("DFS", "BFS")
        ]
        reports = run_sweep(points)
        assert [r.strategy for r in reports] == ["DFS", "BFS", "DFS", "BFS"]
        # Spot-check against direct execution of one mid-list point.
        direct = pool._payload_to_result(pool.execute_point(points[2]))
        assert dataclasses.asdict(reports[2]) == dataclasses.asdict(direct)

    def test_deep_points_return_floats(self):
        from repro.workload.deepgen import DeepParams

        base = DeepParams(num_roots=60, depth=2, use_factor=3, buffer_pages=20)
        points = [
            SweepPoint(
                kind="deep",
                deep_params=base,
                depth=depth,
                span=3,
                queries=2,
                runner=runner,
            )
            for depth in (1, 2)
            for runner in ("dfs", "bfs", "nodup")
        ]
        results = run_sweep(points)
        assert len(results) == 6
        assert all(isinstance(value, float) for value in results)

    def test_sweep_log_records_telemetry(self, params):
        before = len(pool.SWEEP_LOG)
        run_sweep([_point(params)])
        entry = pool.SWEEP_LOG[-1]
        assert len(pool.SWEEP_LOG) == before + 1
        assert entry["points"] == 1
        assert entry["executed"] == 1
        assert entry["cache_hits"] == 0
        assert entry["seconds"] >= 0


class TestPointKey:
    def test_stable_across_equal_points(self, params):
        assert point_key(_point(params)) == point_key(_point(params))

    def test_sensitive_to_every_option(self, params):
        base = _point(params)
        variants = [
            _point(params, strategy="DFS"),
            _point(params.replace(num_top=3)),
            SweepPoint(params=params, strategy="BFS", num_retrieves=5),
            _point(params, cold_retrieves=True),
            _point(params, warmup=2),
            _point(params, db_cache=True),
            _point(params, strategy_kwargs=(("threshold", 7),)),
        ]
        keys = {point_key(p) for p in variants}
        assert point_key(base) not in keys
        assert len(keys) == len(variants)


class TestPointCache:
    def test_second_run_is_all_hits_and_identical(self, params, tmp_path):
        points = [_point(params, name) for name in ("DFS", "BFS")]
        cache = PointCache(str(tmp_path))
        cold = run_sweep(points, cache=cache)
        assert (cache.hits, cache.stores) == (0, 2)

        warm_cache = PointCache(str(tmp_path))
        assert len(warm_cache) == 2
        warm = run_sweep(points, cache=warm_cache)
        assert warm_cache.hits == 2
        assert [dataclasses.asdict(r) for r in cold] == [
            dataclasses.asdict(r) for r in warm
        ]

    def test_torn_entry_is_quarantined_on_load(self, params, tmp_path):
        """A truncated entry fails verification and reads as a miss."""
        import os

        cache = PointCache(str(tmp_path))
        run_sweep([_point(params)], cache=cache)
        with open(os.path.join(cache.dir, "torn-entry.json"), "w") as handle:
            handle.write('{"key": "truncated-entr')
        reloaded = PointCache(str(tmp_path))
        assert len(reloaded) == 1
        assert reloaded.corrupt == 1
        # The torn file was moved aside, not deleted.
        assert any(
            name.endswith(".corrupt") for name in os.listdir(reloaded.dir)
        )

    def test_cache_files_are_per_fingerprint(self, tmp_path, monkeypatch):
        cache = PointCache(str(tmp_path))
        assert cache.fingerprint[:16] in cache.dir


class TestTracedPoints:
    def test_traced_point_carries_validated_summary(self, params):
        report = run_sweep([_point(params, traced=True)])[0]
        assert report.traced is not None
        measured = report.traced["measured"]
        assert measured["retrieve_io"] + measured["update_io"] == report.total_io
        assert measured["par_cost"] == report.par_cost
        assert measured["child_cost"] == report.child_cost

    def test_traced_serial_matches_parallel(self, params):
        """Same event stream (digest included) from serial and pooled runs."""
        points = [
            _point(params, strategy, traced=True)
            for strategy in ("DFS", "BFS", "DFSCACHE")
        ]
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.traced == b.traced
            assert a.traced["digest"] == b.traced["digest"]
        assert [dataclasses.asdict(r) for r in serial] == [
            dataclasses.asdict(r) for r in parallel
        ]

    def test_warm_point_cache_replays_identical_trace(self, params, tmp_path):
        point = _point(params, "BFS", traced=True)
        cold = run_sweep([point], cache=PointCache(str(tmp_path)))[0]
        warm_cache = PointCache(str(tmp_path))
        warm = run_sweep([point], cache=warm_cache)[0]
        assert warm_cache.hits == 1
        assert warm.traced == cold.traced
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)

    def test_traced_flag_changes_point_key(self, params):
        assert point_key(_point(params)) != point_key(_point(params, traced=True))


class TestCounterIsolation:
    """Pooled workers reuse processes: nothing may leak between points."""

    def test_buffer_stats_do_not_leak_across_points(self, params):
        """A point's buffer delta is identical however many ran before it."""
        db_cache = DatabaseCache()
        first = pool.execute_point(_point(params, "DFSCACHE"), db_cache)
        for _ in range(2):  # churn clones of the same cached template
            pool.execute_point(_point(params, "DFSCACHE"), db_cache)
        again = pool.execute_point(_point(params, "DFSCACHE"), db_cache)
        fresh = pool.execute_point(_point(params, "DFSCACHE"), DatabaseCache())
        assert first["buffer_stats"] == again["buffer_stats"]
        assert first["buffer_stats"] == fresh["buffer_stats"]

    def test_traced_registry_is_per_point(self, params):
        """Back-to-back traced points in one process stay independent."""
        db_cache = DatabaseCache()
        first = pool.execute_point(_point(params, traced=True), db_cache)
        second = pool.execute_point(_point(params, traced=True), db_cache)
        assert first["traced"] == second["traced"]

    def test_sweep_log_aggregates_buffer_and_io(self, params):
        run_sweep([_point(params)])
        entry = pool.SWEEP_LOG[-1]
        assert entry["reports"] == 1
        assert entry["io"]["retrieve"] > 0
        accesses = entry["buffer"]["hits"] + entry["buffer"]["misses"]
        assert accesses > 0


class TestWorkerSpans:
    def test_pooled_sweep_merges_worker_spans(self, params):
        """Spans a pool worker records reach the parent's profiler."""
        from repro.obs.spans import profiled

        points = [_point(params, name) for name in ("DFS", "BFS", "DFSCACHE")]
        with profiled() as prof:
            run_sweep(points, jobs=2)
        assert pool.SWEEP_LOG[-1]["executed"] == len(points)
        assert prof.stats["point.execute"].count == len(points)
        assert any("driver.retrieve" in path for path in prof.stats)


class TestScheduler:
    """How many workers a ``--jobs`` value asks for."""

    def test_resolve_jobs(self, monkeypatch):
        assert pool.resolve_jobs(3) == 3
        assert pool.resolve_jobs("3") == 3
        monkeypatch.setattr(pool.os, "cpu_count", lambda: 8)
        assert pool.resolve_jobs("auto") == 8
        assert pool.resolve_jobs(None) == 8
        monkeypatch.setattr(pool.os, "cpu_count", lambda: None)
        assert pool.resolve_jobs("auto") == 1
        with pytest.raises(ValueError):
            pool.resolve_jobs(0)
        with pytest.raises(ValueError):
            pool.resolve_jobs("zero")


class TestOneDispatchLoop:
    """One loop, two executors: in-process (jobs=1) and a process pool."""

    FAST = pool.RetryPolicy(max_retries=1, backoff_seconds=0.001)

    @pytest.fixture(autouse=True)
    def no_active_plan(self):
        fault_plan.clear()
        yield
        fault_plan.clear()

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_either_executor_same_results_quarantine_and_progress(
        self, params, jobs
    ):
        bad = SweepPoint(
            params=params, strategy="BFS", sequence="mixed", num_retrieves=3
        )  # mixed sequence without mix_num_tops
        points = [_point(params, "DFS"), _point(params, "BFS"), bad,
                  _point(params, "DFSCACHE")]
        events = []
        pool.set_progress(lambda event, info: events.append((event, info)))
        try:
            results = run_sweep(points, jobs=jobs, policy=self.FAST)
        finally:
            pool.set_progress(None)
        # Each executor is held to the same executor-free reference, so
        # the two parametrisations are equal to each other.
        for point, result in zip(points, results):
            if point is bad:
                assert isinstance(result, pool.FailedPoint)
            else:
                direct = pool._payload_to_result(pool.execute_point(point))
                assert dataclasses.asdict(result) == dataclasses.asdict(direct)
        faults = pool.SWEEP_LOG[-1]["faults"]
        assert faults["quarantined"] == [pool.point_label(bad)]
        assert faults["retries"] == 0
        done = sorted(
            (info["index"], info["failed"])
            for event, info in events
            if event == "point_done"
        )
        assert done == [(0, False), (1, False), (2, True), (3, False)]

    def test_in_process_injections_are_counted_once(self, params, tmp_path):
        # One site fires inside the task, one in the parent's checkpoint
        # write; in-process both hit the same plan object.
        plan = FaultPlan([
            FaultSpec("point.poison", count=1),
            FaultSpec("pointcache.save", count=1),
        ])
        fault_plan.install(plan)
        cache = PointCache(str(tmp_path))
        run_sweep([_point(params)], cache=cache, policy=self.FAST)
        assert plan.injections == {"point.poison": 1, "pointcache.save": 1}
        assert pool.SWEEP_LOG[-1]["faults"]["injections"] == plan.injections

    def test_exhausted_pool_budget_finishes_in_process(self, params):
        points = [
            _point(params.replace(num_top=num_top)) for num_top in (2, 5, 10)
        ]
        clean = run_sweep(points, policy=self.FAST)
        # Every worker dies on its first task, and no rebuild is allowed.
        fault_plan.install(FaultPlan([FaultSpec("worker.crash", count=1)]))
        degraded = run_sweep(
            points,
            jobs=2,
            policy=dataclasses.replace(self.FAST, max_pool_restarts=0),
        )
        assert [dataclasses.asdict(r) for r in degraded] == [
            dataclasses.asdict(r) for r in clean
        ]
        faults = pool.SWEEP_LOG[-1]["faults"]
        assert (faults["pool_restarts"], faults["downgrades"]) == (1, 1)
        assert faults["quarantined"] == []
        assert faults["injections"] == {}  # worker.* never fires in the parent

    def test_deep_point_honours_its_deadline_off_the_main_thread(self):
        """The deep-query loop polls the cooperative deadline."""
        import threading

        from repro.workload.deepgen import DeepParams

        point = SweepPoint(
            kind="deep",
            deep_params=DeepParams(
                num_roots=60, depth=2, use_factor=3, buffer_pages=20
            ),
            depth=2,
            span=3,
            queries=2,
            runner="dfs",
        )
        policy = pool.RetryPolicy(max_retries=0, point_timeout=1e-9)
        entries = []

        def sweep():
            run_sweep([point], policy=policy)
            entries.append(pool.SWEEP_LOG[-1])

        thread = threading.Thread(target=sweep)
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        (entry,) = entries
        assert entry["faults"]["timeouts"] == 1
        assert entry["faults"]["quarantined"] == [pool.point_label(point)]

    def test_every_experiments_costliest_point_times_out_cooperatively(
        self, monkeypatch
    ):
        """The deadline is the only timeout, so every experiment must reach
        a cooperative checkpoint: its costliest point, off the main
        thread, under a 1 ms budget, fails fast as one timeout."""
        import threading
        import time

        from repro.experiments import report

        class Captured(Exception):
            def __init__(self, points):
                super().__init__()
                self.points = list(points)

        def capture(points, **_kwargs):
            raise Captured(points)

        def work(point):
            if point.kind == "deep":
                return point.depth * point.span
            return point.params.num_top

        for module in (report.ablations, report.deep, report.fig3, report.fig4,
                       report.fig5, report.fig7, report.matrix, report.opt,
                       report.sec62, report.smart):
            monkeypatch.setattr(module, "run_sweep", capture)
        costliest = {}
        for name, run_experiment in report.experiment_suite(0.05):
            with pytest.raises(Captured) as caught:
                run_experiment()
            costliest[name] = max(caught.value.points, key=work)
        assert sorted(costliest) == sorted(report.EXPERIMENT_NAMES)

        policy = pool.RetryPolicy(max_retries=0, point_timeout=1e-3)
        outcomes = {}

        def sweep():
            for name, point in costliest.items():
                (result,) = run_sweep([point], policy=policy)
                outcomes[name] = (result, pool.SWEEP_LOG[-1]["faults"])

        t0 = time.perf_counter()
        thread = threading.Thread(target=sweep)
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        assert time.perf_counter() - t0 <= 10.0
        assert sorted(outcomes) == sorted(costliest)
        for name, (result, faults) in outcomes.items():
            assert isinstance(result, pool.FailedPoint), name
            assert faults["timeouts"] == 1, name
