"""The four engine workloads: one database, one strategy, one sequence.

``probe_dfs``, ``probe_resident``, ``scan_bfs`` and ``mixed_update``
share this driver: build the paper-scale database, freeze it, generate
a fixed-size operation sequence, then run ``run_sequence`` on a fresh
``Snapshot.attach()`` clone per round for the measuring window.  Rounds
are identical work, so every round must report identical simulated I/O;
a round that raises or differs is a failed round.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import harness
import probes
import tracing
from harness import Metrics, median, percentile, tail_percentile, timed

from repro.core.queries import RetrieveQuery
from repro.core.strategies.base import make_strategy
from repro.storage.snapshot import Snapshot
from repro.workload.driver import CostReport, run_sequence
from repro.workload.generator import build_database
from repro.workload.params import WorkloadParams
from repro.workload.queries import generate_sequence

#: name -> strategy, parameter overrides, retrieves per round, scale.
#: Round sizes are part of the workload: about one second each here, so
#: a measuring window holds enough rounds for a steady median.
SPECS: Dict[str, Dict[str, Any]] = {
    "probe_dfs": {
        "strategy": "DFS",
        "params": {"buffer_pages": 100, "num_top": 100, "pr_update": 0.0},
        "retrieves": 400,
    },
    "probe_resident": {
        "strategy": "DFS",
        "params": {"buffer_pages": 2048, "num_top": 100, "pr_update": 0.0},
        "retrieves": 500,
    },
    "scan_bfs": {
        "strategy": "BFS",
        "params": {"buffer_pages": 100, "num_top": 2000, "pr_update": 0.0},
        "retrieves": 32,
    },
    "mixed_update": {
        "strategy": "DFSCACHE",
        "params": {
            "buffer_pages": 100, "size_cache": 1000, "num_top": 100,
            "pr_update": 0.3,
        },
        "retrieves": 320,
    },
}

#: Tiny stand-ins for ``--smoke`` (harness self-test, never compared).
SMOKE_SCALE = 0.05
SMOKE_RETRIEVES = 12

MIN_ROUNDS = 3

#: Workloads that also time a round under the program's own Tracer.
TRACER_WORKLOADS = ("probe_dfs", "mixed_update")


class TimedSequence(list):
    """An operation list that notes the clock each time the driver asks
    for the next operation.

    ``run_sequence`` iterates its sequence once, so the gap between two
    consecutive requests is one operation as the driver's caller sees
    it: the strategy call plus the driver's own per-op accounting.
    """

    def __init__(self, ops: Sequence[Any]) -> None:
        super().__init__(ops)
        self.stamps: List[int] = []

    def __iter__(self):
        stamps = self.stamps = []
        clock = time.perf_counter_ns
        for op in list.__iter__(self):
            stamps.append(clock())
            yield op
        stamps.append(clock())

    def latencies_ms(self) -> Tuple[List[float], List[float]]:
        """``(retrieve, update)`` latencies of the last iteration."""
        stamps = self.stamps
        retrieves: List[float] = []
        updates: List[float] = []
        for index, op in enumerate(list.__iter__(self)):
            gap = (stamps[index + 1] - stamps[index]) / 1e6
            (retrieves if isinstance(op, RetrieveQuery) else updates).append(gap)
        return retrieves, updates


class Setup:
    """One complete set-up: database, frozen snapshot, sequence."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        spec = SPECS[name]
        self.name = name
        self.strategy_name = spec["strategy"]
        base = WorkloadParams()
        if smoke:
            base = base.scaled(SMOKE_SCALE)
            overrides = {
                key: value for key, value in spec["params"].items()
                if key in ("pr_update",)
            }
        else:
            overrides = dict(spec["params"])
        self.params = base.replace(seed=seed, **overrides)
        self.retrieves = SMOKE_RETRIEVES if smoke else spec["retrieves"]
        strategy = make_strategy(self.strategy_name)
        db, self.build_s = timed(build_database, self.params, cache=strategy.uses_cache)
        self.pages_built = db.disk.total_pages()
        self.snapshot = Snapshot.freeze(db)
        self.sequence, self.generate_s = timed(
            generate_sequence, self.params, db, num_retrieves=self.retrieves
        )


def setup_only(name: str, seed: int, smoke: bool) -> None:
    Setup(name, seed, smoke)


def _ledger(report: CostReport) -> Dict[str, Any]:
    """The simulated-I/O ledger of one round — everything that must
    repeat exactly."""
    ledger = {
        "num_retrieves": report.num_retrieves,
        "num_updates": report.num_updates,
        "total_io": report.total_io,
        "retrieve_io": report.retrieve_io,
        "update_io": report.update_io,
        "par_cost": report.par_cost,
        "child_cost": report.child_cost,
        "buffer": dict(report.buffer_stats or {}),
    }
    if report.cache_stats is not None:
        ledger["cache"] = {
            key: report.cache_stats[key]
            for key in ("hits", "misses", "insertions", "evictions", "invalidations")
        }
    return ledger


class Rounds:
    """Runs rounds, keeps their walls and latencies, checks their ledgers."""

    def __init__(self, setup: Setup) -> None:
        self.setup = setup
        self.strategy = make_strategy(setup.strategy_name)
        self.walls: List[float] = []
        self.retrieve_ms: List[float] = []
        self.update_ms: List[float] = []
        self.ledger: Optional[Dict[str, Any]] = None
        self.report: Optional[CostReport] = None
        self.last_db: Any = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, tracer: Any = None, keep: bool = True) -> Optional[float]:
        """One round on a fresh clone; its wall, or None if it failed."""
        ops = TimedSequence(self.setup.sequence)
        self.attempted += len(ops)
        try:
            db = self.setup.snapshot.attach()
            report, wall = timed(run_sequence, db, self.strategy, ops, tracer=tracer)
        except Exception as exc:  # a failed round is counted, not fatal
            self.failed += len(ops)
            self.problems.append("round raised %s: %s" % (type(exc).__name__, exc))
            return None
        ledger = _ledger(report)
        if self.ledger is None:
            self.ledger = ledger
        elif ledger != self.ledger:
            self.failed += len(ops)
            self.problems.append("round ledger differs: %r != %r" % (ledger, self.ledger))
            return None
        self.report = report
        self.last_db = db
        if keep:
            self.walls.append(wall)
            retrieves, updates = ops.latencies_ms()
            self.retrieve_ms.extend(retrieves)
            self.update_ms.extend(updates)
        return wall

    def run_for(self, seconds: float, minimum: int = MIN_ROUNDS) -> None:
        """Rounds until ``seconds`` have passed (at least ``minimum``);
        stops at the first failed round — the run is already lost."""
        deadline = time.perf_counter() + seconds
        while len(self.walls) < minimum or time.perf_counter() < deadline:
            if self.run() is None:
                break


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        expected: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    setup = Setup(name, seed, smoke)
    rounds = Rounds(setup)
    metrics = Metrics()
    ops = len(setup.sequence)

    if trace:
        rounds.run_for(seconds / 4.0, minimum=2)
    else:
        rounds.run_for(seconds)

    if not rounds.failed:
        report = rounds.report
        if expected is not None and rounds.ledger != expected:
            rounds.failed += ops
            rounds.problems.append(
                "simulated I/O differs from the pinned ledger: %r != %r"
                % (rounds.ledger, expected)
            )
        metrics.put_median("ops_per_s", [ops / w for w in rounds.walls], "1/s")
        metrics.put_latencies(rounds.retrieve_ms)
        metrics.put("sim_io_per_retrieve", report.avg_io_per_retrieve, "pages")
        if trace:
            _per_layer(setup, rounds, metrics)
    metrics.put("failed_share", rounds.failed / rounds.attempted, "ratio")
    metrics.put("peak_rss_mb", harness.peak_rss_mb(), "MiB")
    return {
        "metrics": metrics,
        "correct": not rounds.failed,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "problems": rounds.problems,
        "pins": rounds.ledger,
    }


# ----------------------------------------------------------------------
# the traced pass and the probes
# ----------------------------------------------------------------------
def _bare_loop(setup: Setup, strategy: Any) -> Tuple[float, List[float], List[float], int]:
    """The driver's loop without the driver: same reset, same ops.

    Returns ``(wall seconds, retrieve us, update us, total I/O)``.
    """
    db = setup.snapshot.attach()
    db.reset_cache()
    db.start_measurement(cold=True)
    retrieve_us: List[float] = []
    update_us: List[float] = []
    clock = time.perf_counter_ns
    t_start = clock()
    for op in setup.sequence:
        t0 = clock()
        if isinstance(op, RetrieveQuery):
            strategy.retrieve(db, op)
            retrieve_us.append((clock() - t0) / 1e3)
        else:
            strategy.update(db, op)
            update_us.append((clock() - t0) / 1e3)
    wall = (clock() - t_start) / 1e9
    return wall, retrieve_us, update_us, db.disk.reads + db.disk.writes


def _per_layer(setup: Setup, rounds: Rounds, metrics: Metrics) -> None:
    name = setup.name
    report = rounds.report
    ops = len(setup.sequence)
    untraced_wall = median(rounds.walls)
    put = metrics.put

    put("workload.generator.build_s", setup.build_s, "s")
    put("workload.generator.pages_built", setup.pages_built, "count")
    put("workload.queries.generate_s", setup.generate_s, "s")

    # --- counters of the reference rounds -----------------------------
    put("core.strategies.par_io_per_retrieve", report.par_cost_per_retrieve, "pages")
    put("core.strategies.child_io_per_retrieve", report.child_cost_per_retrieve, "pages")
    buffer = report.buffer_stats
    put("storage.buffer.hit_ratio", report.buffer_hit_rate, "ratio")
    put("storage.buffer.misses", buffer["misses"], "count")
    put("storage.buffer.evictions", buffer["evictions"], "count")
    put("storage.buffer.dirty_evictions", buffer["dirty_evictions"], "count")
    put("storage.disk.reads", rounds.last_db.disk.reads, "count")
    put("storage.disk.writes", rounds.last_db.disk.writes, "count")
    if report.cache_stats is not None:
        put("core.cache.hit_ratio", report.cache_stats["hit_rate"], "ratio")
        put("core.cache.invalidations", report.cache_stats["invalidations"], "count")

    # --- the bare loop: strategy latencies and the driver's overhead ---
    # Both sides take their fastest run: the difference of two medians
    # of second-long timings would be all noise at microseconds per op.
    bare_walls = []
    for _ in range(2):
        bare_wall, retrieve_us, update_us, bare_io = _bare_loop(setup, rounds.strategy)
        bare_walls.append(bare_wall)
        if bare_io != report.total_io:
            rounds.problems.append(
                "bare loop I/O %d != driver I/O %d" % (bare_io, report.total_io)
            )
            rounds.failed += ops
    put("workload.driver.overhead_us_per_op",
        (min(rounds.walls) - min(bare_walls)) * 1e6 / ops, "us")
    put("core.strategies.retrieve_us_p50", percentile(retrieve_us, 50), "us",
        n=len(retrieve_us))
    put("core.strategies.retrieve_us_p99",
        percentile(retrieve_us, min(99.0, tail_percentile(len(retrieve_us)))), "us",
        n=len(retrieve_us))
    if update_us:
        put("core.strategies.update_us_p50", percentile(update_us, 50), "us",
            n=len(update_us))

    # --- the program's own Tracer (self-validating) ---------------------
    if name in TRACER_WORKLOADS:
        from repro.obs import MetricsRegistry, Tracer

        tracer = Tracer(registry=MetricsRegistry(), keep_events=False)
        wall = rounds.run(tracer=tracer, keep=False)
        if wall is not None:
            put("obs.trace.tracer_slowdown", wall / untraced_wall, "ratio")

    # --- the bench's span trace -----------------------------------------
    recorder = tracing.Recorder()
    with tracing.Instrumentation(recorder):
        traced_wall, traced_window = timed(rounds.run, keep=False)
    if traced_wall is None:
        return  # the failure is already recorded
    put("trace.overhead_ratio", traced_wall / untraced_wall, "ratio")
    recorder.write_jsonl(harness.trace_path(name))

    # --- probes -----------------------------------------------------------
    snapshot = setup.snapshot
    probed: Dict[str, float] = {}
    probed.update(probes.buffer_probes(snapshot))
    probed.update(probes.btree_probes(snapshot, setup.sequence))
    probed.update(probes.query_probes(snapshot, setup.sequence))
    probed.update(probes.codec_probes(snapshot))
    probed.update(probes.snapshot_probes(snapshot, repeats=10))
    if report.cache_stats is not None:
        probed.update(probes.cache_probes(snapshot, setup.sequence))
    metrics.put_declared(probed)

    # --- the budget ---------------------------------------------------------
    tracing.put_budget(
        metrics, tracing.self_time_by_name(recorder.spans()),
        traced_window * 1e9, probes.pool_fetch_ns(probed, buffer),
    )
