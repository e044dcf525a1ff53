"""``report_grid``: what a user of the reproduction waits for.

Nine experiments run through their public ``run()`` over an empty
snapshot store and point cache (a *cold* pass: database builds, arena
writes, one attach per point, sweep dispatch, point-cache writes over
every strategy), then again over the now-full caches with a freshly
constructed ``PointCache`` (a *warm* pass: load/verify and table
rendering only — the engine is bypassed).  Each cold pass gets brand-new
directories under ``bench/out/tmp``.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

import harness
import probes
import tracing
from harness import Metrics, median, timed

from repro import experiments
from repro.experiments import pool
from repro.storage.snapshot import Snapshot, SnapshotStore
from repro.workload.generator import build_database

#: The grid: every experiment of the report, with few retrieves per
#: point so that per-point fixed costs — not the engine, which has its
#: own four workloads — carry the pass.  200 points, 38 database builds.
SCALE = 0.1
EXPERIMENTS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("fig3", {"num_retrieves": 4}),
    ("fig4", {"coarse": True, "num_retrieves": 4}),
    ("fig5", {"num_retrieves": 4}),
    ("fig7", {"num_retrieves": 4}),
    ("sec62", {"num_retrieves": 4}),
    ("smart", {"num_retrieves": 4}),
    ("deep", {"span": 12}),
    ("matrix", {"num_retrieves": 4}),
    ("opt", {"num_retrieves": 4}),
)
SMOKE_SCALE = 0.05
SMOKE_EXPERIMENTS = (("fig3", {"num_retrieves": 2}), ("deep", {"span": 4}))

MIN_COLD_PASSES = 2
WARM_PER_COLD = 3


def _grid(smoke: bool) -> Tuple[float, Tuple[Tuple[str, Dict[str, Any]], ...]]:
    return (SMOKE_SCALE, SMOKE_EXPERIMENTS) if smoke else (SCALE, EXPERIMENTS)


class Pass:
    """One pass of the grid over the caches under ``root``."""

    def __init__(self, root: str, seed: int, smoke: bool, jobs: int = 1) -> None:
        scale, grid = _grid(smoke)
        point_gaps: List[float] = []
        last = [0]

        def progress(event: str, info: Dict[str, Any]) -> None:
            now = time.perf_counter_ns()
            if event == "point_done":
                point_gaps.append((now - last[0]) / 1e6)
            last[0] = now

        log_start = len(pool.SWEEP_LOG)
        pool.set_progress(progress)
        t0 = time.perf_counter()
        try:
            cache = pool.PointCache(os.path.join(root, pool.POINT_CACHE_DIRNAME))
            results = []
            for name, kwargs in grid:
                module = getattr(experiments, name)
                params = dataclasses.replace(module.default_params(scale), seed=seed)
                results.append(
                    module.run(scale=scale, params=params, jobs=jobs,
                               point_cache=cache, **kwargs)
                )
            tables, self.table_s = timed(lambda: [r.table() for r in results])
        finally:
            pool.set_progress(None)
        self.wall = time.perf_counter() - t0
        self.point_ms = point_gaps
        self.digest = hashlib.sha256("\n".join(tables).encode()).hexdigest()
        entries = pool.SWEEP_LOG[log_start:]
        self.points = sum(e["points"] for e in entries)
        self.executed = sum(e["executed"] for e in entries)
        self.quarantined = sum(len(e["faults"]["quarantined"]) for e in entries)
        self.retries = sum(e["faults"]["retries"] for e in entries)
        self.db = {
            key: sum(e["db"].get(key, 0) for e in entries)
            for key in ("builds", "attaches", "build_seconds", "attach_seconds")
        }
        self.buffer = {
            key: sum(e["buffer"][key] for e in entries) for key in ("hits", "misses")
        }


def _configure(root: str) -> None:
    pool.configure_db_store(os.path.join(root, pool.DB_CACHE_DIRNAME))
    harness.assert_untracked_outputs()


def _release(root: str) -> None:
    """Unmap the pass's arenas and delete its directories."""
    pool.configure_db_store(None)
    SnapshotStore(os.path.join(root, pool.DB_CACHE_DIRNAME)).clear()
    harness.remove_tmp(root)


def setup_only(seed: int, smoke: bool) -> None:
    root = harness.fresh_tmp("grid-setup")
    try:
        _configure(root)
        pool.PointCache(os.path.join(root, pool.POINT_CACHE_DIRNAME))
    finally:
        _release(root)


def _sim_io(root: str) -> Tuple[int, int]:
    """``(total I/O, retrieves)`` over the point cache's workload entries."""
    total = retrieves = 0
    pattern = os.path.join(root, pool.POINT_CACHE_DIRNAME, "points-*", "*.json")
    for path in glob.glob(pattern):
        with open(path) as handle:
            result = json.load(handle)["result"]
        if result.get("kind") == "workload":
            total += result["total_io"]
            retrieves += result["num_retrieves"]
    return total, retrieves


class Grid:
    """Cold and warm passes, their checks and their counts."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.cold: List[Pass] = []
        self.warm: List[Pass] = []
        self.digest: Optional[str] = None
        self.sim_io: Optional[Tuple[int, int]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _check(self, done: Pass, warm: bool) -> None:
        self.attempted += done.points
        self.failed += done.quarantined
        if done.quarantined:
            self.problems.append("%d quarantined point(s)" % done.quarantined)
        if self.digest is None:
            self.digest = done.digest
        elif done.digest != self.digest:
            self.failed += done.points
            self.problems.append("table digest %s != %s" % (done.digest, self.digest))
        if warm and (done.executed or done.db["builds"]):
            self.failed += done.points
            self.problems.append(
                "warm pass executed %d point(s), built %d database(s)"
                % (done.executed, done.db["builds"])
            )

    def cold_pass(self, warm_passes: int, jobs: int = 1, keep: bool = True,
                  instrument: Optional[tracing.Recorder] = None) -> Tuple[Pass, str]:
        """A cold pass in new directories, then ``warm_passes`` warm ones.

        Returns the cold pass and its (still populated) root; the caller
        releases the root.
        """
        root = harness.fresh_tmp("grid")
        _configure(root)
        if instrument is not None:
            with tracing.Instrumentation(instrument):
                cold = Pass(root, self.seed, self.smoke, jobs)
        else:
            cold = Pass(root, self.seed, self.smoke, jobs)
        self._check(cold, warm=False)
        sim_io = _sim_io(root)
        if self.sim_io is None:
            self.sim_io = sim_io
        elif sim_io != self.sim_io:
            self.failed += cold.points
            self.problems.append("simulated I/O %r != %r" % (sim_io, self.sim_io))
        if keep:
            self.cold.append(cold)
        for _ in range(warm_passes):
            warm = Pass(root, self.seed, self.smoke)
            self._check(warm, warm=True)
            self.warm.append(warm)
        return cold, root


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        expected: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    grid = Grid(seed, smoke)
    metrics = Metrics()
    deadline = time.perf_counter() + seconds
    roots: List[str] = []
    try:
        minimum = 1 if (trace or smoke) else MIN_COLD_PASSES
        while len(grid.cold) < minimum or (not trace and time.perf_counter() < deadline):
            _cold, root = grid.cold_pass(WARM_PER_COLD)
            roots.append(root)
            if len(roots) > 1:
                _release(roots.pop(0))
        pins = {"digest": grid.digest, "total_io": grid.sim_io[0],
                "retrieves": grid.sim_io[1], "points": grid.cold[0].points}
        if expected is not None and pins != expected:
            grid.failed += grid.cold[0].points
            grid.problems.append("pinned %r != measured %r" % (expected, pins))

        point_ms = [ms for done in grid.cold for ms in done.point_ms]
        metrics.put_median("ops_per_s", [p.points / p.wall for p in grid.cold], "1/s")
        metrics.put_latencies(point_ms)
        metrics.put("sim_io_per_retrieve", grid.sim_io[0] / grid.sim_io[1], "pages")
        metrics.put_median("cold_wall_s", [p.wall for p in grid.cold], "s")
        metrics.put_median("warm_wall_s", [p.wall for p in grid.warm], "s")
        metrics.put("failed_share", grid.failed / grid.attempted, "ratio")
        if trace:
            _per_layer(grid, roots[-1], metrics)
    finally:
        for root in roots:
            _release(root)
    metrics.put("peak_rss_mb", harness.peak_rss_mb(), "MiB")
    return {
        "metrics": metrics,
        "correct": not grid.failed,
        "attempted": grid.attempted,
        "failed": grid.failed,
        "problems": grid.problems,
        "pins": pins,
    }


# ----------------------------------------------------------------------
# the traced pass and the probes
# ----------------------------------------------------------------------
def _pointcache_probes(source_root: str) -> Dict[str, float]:
    """``PointCache.put`` / ``.get`` / constructor over a cold pass's
    entries, in a directory of their own."""
    pattern = os.path.join(source_root, pool.POINT_CACHE_DIRNAME, "points-*", "*.json")
    entries = []
    for path in sorted(glob.glob(pattern)):
        with open(path) as handle:
            entry = json.load(handle)
        entries.append((entry["key"], entry["result"]))
    root = harness.fresh_tmp("grid-pointcache")
    try:
        cache = pool.PointCache(root)
        _none, put_s = timed(lambda: [cache.put(key, result) for key, result in entries])
        _none, get_s = timed(lambda: [cache.get(key) for key, _result in entries])
        _cache, load_s = timed(pool.PointCache, root)
    finally:
        harness.remove_tmp(root)
    return {
        "experiments.pool.pointcache_put_ms": put_s * 1e3 / len(entries),
        "experiments.pool.pointcache_get_ms": get_s * 1e3 / len(entries),
        "experiments.pool.pointcache_load_ms": load_s * 1e3,
    }


def _per_layer(grid: Grid, reference_root: str, metrics: Metrics) -> None:
    put = metrics.put
    reference = grid.cold[0]
    scale, _experiments = _grid(grid.smoke)
    params = dataclasses.replace(experiments.fig3.default_params(scale), seed=grid.seed)

    put("experiments.runner.db_builds", reference.db["builds"], "count")
    put("experiments.runner.db_attaches", reference.db["attaches"], "count")
    put("experiments.runner.build_s_total", reference.db["build_seconds"], "s")
    put("experiments.runner.attach_s_total", reference.db["attach_seconds"], "s")
    put("experiments.pool.retries", reference.retries, "count")
    put("experiments.pool.cold_pass_s", metrics.get("cold_wall_s"), "s")
    put("experiments.pool.warm_pass_ms", metrics.get("warm_wall_s") * 1e3, "ms")
    put("experiments.runner.table_ms",
        median([p.table_s for p in grid.cold + grid.warm]) * 1e3, "ms")

    db, build_s = timed(build_database, params)
    put("workload.generator.build_s", build_s, "s")
    put("workload.generator.pages_built", db.disk.total_pages(), "count")
    snapshot = Snapshot.freeze(db)

    # --- the bench's span trace over one more cold pass -----------------
    recorder = tracing.Recorder()
    traced, root = grid.cold_pass(0, keep=False, instrument=recorder)
    _release(root)
    put("trace.overhead_ratio", traced.wall / reference.wall, "ratio")
    recorder.write_jsonl(harness.trace_path("report_grid"))
    probed = probes.buffer_probes(snapshot)
    by_name = tracing.self_time_by_name(recorder.spans())
    tracing.put_budget(metrics, by_name, traced.wall * 1e9,
                       probes.pool_fetch_ns(probed, traced.buffer))
    sweeps = by_name.get("experiments.pool.run_sweep", {"busy_ns": 0})
    points = by_name.get("experiments.pool.execute_point", {"busy_ns": 0, "count": 1})
    put("experiments.pool.overhead_ms_per_point",
        (sweeps["busy_ns"] - points["busy_ns"]) / 1e6 / traced.points, "ms")

    # --- two workers -------------------------------------------------------
    parallel, root = grid.cold_pass(0, jobs=2, keep=False)
    _release(root)
    put("experiments.pool.jobs2_speedup", reference.wall / parallel.wall, "ratio")

    # --- probes --------------------------------------------------------------
    probed.update(_pointcache_probes(reference_root))
    probed.update(probes.isam_probe(params))
    probed.update(probes.snapshot_probes(snapshot, repeats=30))
    probed.update(probes.arena_probes(params))
    metrics.put_declared(probed)
