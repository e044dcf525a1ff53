"""Parallel, resumable, fault-tolerant sweep execution with a persistent
point cache.

Every experiment in this package is a parameter sweep: a grid of
(parameter point, strategy) cells, each measured independently.  This
module turns that structure into an explicit execution layer:

* :class:`SweepPoint` — a declarative, picklable spec of one cell
  (workload parameters + strategy + run options, or a deep-hierarchy
  query point).  Experiments build a flat list of points and get their
  :class:`~repro.workload.driver.CostReport` rows back *in input order*;
* :func:`run_sweep` — runs a point list through one dispatch loop,
  driven by an in-process executor (``jobs=1``, the default) or a
  process pool.  Workers build and reuse databases locally through a
  bounded per-worker :class:`~repro.experiments.runner.DatabaseCache`;
  only the measured reports travel back to the parent, so results are
  bit-for-bit identical to an in-process run regardless of completion
  order;
* :class:`PointCache` — a persistent on-disk memo (one checksummed JSON
  file per finished point under ``results/.pointcache/``) keyed by a
  stable hash of the point plus a fingerprint of the ``repro`` source
  tree.  Finished points are never recomputed: an interrupted, killed or
  repeated sweep resumes from the cache, and any code change invalidates
  every entry at once.

Databases themselves are reused through the copy-on-write snapshot
store (:mod:`repro.storage.snapshot`): when :func:`configure_db_store`
names a store root (the report runner and CLI point it at
``results/.dbcache/``), every built shape is frozen once and each
point attaches a clone in milliseconds — in-process, in every pool
worker, and across repeated report runs.  ``SWEEP_LOG`` entries carry
the build/attach split so the saving is visible in telemetry.

Fault tolerance (see :mod:`repro.fault`): a point's measurement is
deterministic, so every failure is recoverable by re-deriving state —

* a failed execution (I/O error, torn page, trace-validation mismatch,
  injected fault) is retried with exponential backoff against a freshly
  attached database, up to :class:`RetryPolicy.max_retries`;
* a point that exhausts its retries is *quarantined*: the sweep records
  a :class:`FailedPoint` (whose numeric attributes read as NaN, so
  tables render with degraded cells instead of dying) and continues;
* pool workers that crash or hang past ``point_timeout`` are detected
  in the parent, the pool is rebuilt, and their points re-dispatched; a
  pool that keeps failing is swapped for the in-process executor and
  the same loop finishes the sweep;
* Ctrl-C terminates workers, keeps every completed point checkpointed
  in the cache, and raises :class:`~repro.errors.SweepInterrupted` so
  the CLI can print a "rerun to resume" hint instead of a traceback;
* every point is flushed to the :class:`PointCache` atomically the
  moment it completes, so even a SIGKILL'd sweep resumes from its last
  completed point.

Fault and recovery counters (injections, retries, timeouts, pool
restarts, quarantined cells, cache corruption and downgrades) land in
each ``SWEEP_LOG`` entry and the process-wide
:class:`~repro.obs.MetricsRegistry`.

Determinism contract: a point's measurement depends only on its spec.
The database build is seeded, ``run_sequence(reset=True)`` starts every
run from a cold buffer pool and an empty cache, and the workload's
updates rewrite fixed-size integer fields in place — so re-running a
point against a reused database yields the same report as against a
fresh one (``tests/experiments/test_pool.py`` pins this down, and
``tests/fault/`` pins that recovery never changes a measured result).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import sys
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.strategies.base import make_strategy
from repro.errors import (
    CacheCorrupt,
    DeadlineExceeded,
    FaultInjected,
    PointFailed,
    SweepInterrupted,
    WorkerLost,
)
from repro.experiments.runner import DatabaseCache, adaptive_queries
from repro.fault import plan as _fault
from repro.obs import spans as _spans
from repro.storage.snapshot import SnapshotStore
from repro.util import deadline as _deadline
from repro.util.fingerprint import code_fingerprint  # noqa: F401  (re-export)
from repro.workload.driver import CostReport, database_for, run_sequence
from repro.workload.params import WorkloadParams
from repro.workload.queries import generate_mixed_sequence, generate_sequence

#: Default location of the persistent point cache, relative to the
#: report's output directory.
POINT_CACHE_DIRNAME = ".pointcache"

#: Default location of the database snapshot store, relative to the
#: report's output directory (next to the point cache).
DB_CACHE_DIRNAME = ".dbcache"

#: Database cache bound of every executor, a pool worker and the
#: in-process one alike: at most this many shapes stay alive (evicted
#: least-recently-used; re-attaching or rebuilding a dropped shape is
#: deterministic, so results are unaffected).
WORKER_DB_CACHE_SIZE = 4

#: Telemetry trail: one entry per :func:`run_sweep` call, with point
#: counts, cache hits, fault/recovery counters and wall-clock seconds.
#: The report runner sums these into the run's ledger record.
SWEEP_LOG: List[Dict[str, Any]] = []

#: Optional live-progress callback (``None`` → zero overhead).  Set via
#: :func:`set_progress`; called as ``callback(event, info)`` with events
#: ``"sweep_start"`` (total/cache_hits/jobs), ``"point_done"``
#: (index/failed) and ``"sweep_end"`` (the finished ``SWEEP_LOG``
#: entry).  :mod:`repro.obs.dashboard` renders these into the live
#: terminal view; the hook never touches measured results.
_PROGRESS = None


def set_progress(callback) -> None:
    """Install (or, with ``None``, remove) the sweep progress callback."""
    global _PROGRESS
    _PROGRESS = callback


# ----------------------------------------------------------------------
# retry / timeout policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Failure budget for one sweep.

    ``max_retries`` is per point (so a point runs at most
    ``max_retries + 1`` times); ``backoff_seconds`` is the base of the
    exponential backoff between attempts; ``point_timeout`` bounds one
    execution (a cooperative monotonic deadline on every thread, a
    SIGALRM backstop on the main thread, and the parent-side watchdog
    for pool workers; ``None`` disables); ``max_pool_restarts`` bounds
    how often a crashed or hung worker pool is rebuilt before the sweep
    continues on the in-process executor.

    The serving layer reuses this policy for client-side retry with
    jittered exponential backoff (:mod:`repro.serve.clients`).
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    point_timeout: Optional[float] = None
    max_pool_restarts: int = 5


#: The policy :func:`run_sweep` uses when none is passed explicitly
#: (experiments never pass one; the CLI's ``--max-retries`` and
#: ``--point-timeout`` flags configure this).
DEFAULT_POLICY = RetryPolicy()


def configure_retry_policy(
    max_retries: Optional[int] = None,
    point_timeout: Optional[float] = None,
    backoff_seconds: Optional[float] = None,
) -> None:
    """Adjust :data:`DEFAULT_POLICY` (None leaves a field unchanged)."""
    global DEFAULT_POLICY
    DEFAULT_POLICY = dataclasses.replace(
        DEFAULT_POLICY,
        **{
            name: value
            for name, value in (
                ("max_retries", max_retries),
                ("point_timeout", point_timeout),
                ("backoff_seconds", backoff_seconds),
            )
            if value is not None
        },
    )


# ----------------------------------------------------------------------
# point specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One measured cell of a sweep.

    ``kind="workload"`` points mirror :func:`repro.experiments.runner
    .run_point` (plus the sequence/warm-up variations the smart and
    matrix experiments need); ``kind="deep"`` points measure one
    (depth, traversal) cell of the deep-hierarchy experiment.
    """

    kind: str = "workload"
    # --- workload points ------------------------------------------------
    params: Optional[WorkloadParams] = None
    strategy: str = ""
    num_retrieves: Optional[int] = None
    cold_retrieves: bool = False
    warmup_fraction: float = 0.0
    #: Absolute warm-up operation count; overrides ``warmup_fraction``.
    warmup: Optional[int] = None
    #: ``"standard"`` or ``"mixed"`` (Section 5.3's NumTop mix).
    sequence: str = "standard"
    mix_num_tops: Optional[Tuple[int, ...]] = None
    #: Force the cache facility on/off on the database (None = derive
    #: from the strategy, as run_point does).
    db_cache: Optional[bool] = None
    db_procedural: bool = False
    strategy_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: Run the point under a :class:`repro.obs.Tracer` (aggregates only,
    #: no event list — summaries stay small enough for the point cache).
    #: The traced summary lands in ``CostReport.traced`` and is
    #: self-validated against the report before the payload leaves the
    #: worker.
    traced: bool = False
    # --- deep points ----------------------------------------------------
    deep_params: Optional[Any] = None  # workload.deepgen.DeepParams
    depth: Optional[int] = None
    span: Optional[int] = None
    queries: Optional[int] = None
    #: ``"dfs"`` | ``"bfs"`` | ``"nodup"``.
    runner: Optional[str] = None


def _canonical(obj: Any) -> Any:
    """A JSON-able, order-stable view of a point (for hashing)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__type__": type(obj).__name__,
            **{
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    return obj


def point_label(point: SweepPoint) -> str:
    """A short human-readable cell name for logs and degraded-cell lists."""
    if point.kind == "deep":
        return "deep:%s@depth=%s,span=%s" % (point.runner, point.depth, point.span)
    params = point.params
    num_top = getattr(params, "num_top", "?")
    return "%s@num_top=%s" % (point.strategy or "?", num_top)


# ----------------------------------------------------------------------
# database snapshot store configuration
# ----------------------------------------------------------------------
#: Root directory of the shared database snapshot store, or None when
#: snapshot reuse is disabled (the default for bare library use; the CLI
#: and report runner call :func:`configure_db_store`).
DB_STORE_ROOT: Optional[str] = None

_DB_STORE: Optional[SnapshotStore] = None


def configure_db_store(root: Optional[str]) -> None:
    """Point sweep execution at a snapshot store (None disables reuse).

    In-process sweeps and pool workers alike materialize databases through
    the store under ``root``; built shapes are frozen and persisted so
    later points, workers and report runs attach clones instead of
    rebuilding.
    """
    global DB_STORE_ROOT, _DB_STORE
    DB_STORE_ROOT = root
    _DB_STORE = None


def _db_store() -> Optional[SnapshotStore]:
    """The process-wide store for :data:`DB_STORE_ROOT` (lazy singleton).

    One store per process keeps its in-memory snapshot LRU effective
    across consecutive :func:`run_sweep` calls (a report runs many).
    """
    global _DB_STORE
    if DB_STORE_ROOT is None:
        return None
    if _DB_STORE is None or _DB_STORE.root != DB_STORE_ROOT:
        _DB_STORE = SnapshotStore(DB_STORE_ROOT)
    return _DB_STORE


def point_key(point: SweepPoint) -> str:
    """Stable cache key: the canonical point plus the code fingerprint."""
    payload = json.dumps(
        {"point": _canonical(point), "code": code_fingerprint()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# persistent point cache
# ----------------------------------------------------------------------
class PointCache:
    """On-disk memo of finished sweep points, one checksummed file each.

    Entries live under ``root/points-<fingerprint>/<key>.json`` (one
    directory per code fingerprint; older fingerprints are simply never
    consulted).  Every entry is written to a temporary file, fsynced and
    atomically renamed into place — the same discipline as the snapshot
    store — so a crash (even SIGKILL) can never leave a torn entry: an
    interrupted sweep resumes from exactly its last completed point.

    Each entry embeds a SHA-256 checksum of its content.  A zero-byte,
    truncated or bit-flipped entry fails verification at load time, is
    quarantined (renamed ``*.corrupt``) and treated as a miss — the
    point is recomputed deterministically and re-stored.  If the cache
    directory becomes unwritable mid-sweep, the cache downgrades to
    memory-only operation instead of failing the run.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.fingerprint = code_fingerprint()
        self.dir = os.path.join(root, "points-%s" % self.fingerprint[:16])
        self._entries: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Entries quarantined after failing verification.
        self.corrupt = 0
        #: Write-path failures that downgraded the cache to memory-only.
        self.downgrades = 0
        #: False once a write failure disabled on-disk persistence.
        self.persistent = True
        self._load()

    # -- loading -------------------------------------------------------
    def _load(self) -> None:
        try:
            names = sorted(os.listdir(self.dir))
        except OSError:  # no directory yet
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            entry = self._read_entry(os.path.join(self.dir, name))
            if entry is not None:
                self._entries[entry["key"]] = entry["result"]

    def _read_entry(self, path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        blob = _fault.corrupt_bytes("pointcache.load", blob)
        try:
            if not blob.strip():
                raise CacheCorrupt("zero-byte or blank entry")
            entry = json.loads(blob.decode("utf-8"))
            if not isinstance(entry, dict):
                raise CacheCorrupt("entry is not an object")
            checksum = self._checksum(entry.get("key"), entry.get("result"))
            if entry.get("check") != checksum:
                raise CacheCorrupt("entry checksum mismatch")
        except (ValueError, UnicodeDecodeError, CacheCorrupt):
            # Torn write, partial entry or bit rot: quarantine and treat
            # as a miss — the point recomputes deterministically.
            self._quarantine(path)
            return None
        return entry

    def _quarantine(self, path: str) -> None:
        self.corrupt += 1
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    @staticmethod
    def _checksum(key: Any, result: Any) -> str:
        payload = json.dumps(
            {"key": key, "result": result}, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- access --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: Dict[str, Any]) -> None:
        if key in self._entries:
            return
        self._entries[key] = result
        if self.persistent:
            try:
                self._write_entry(key, result)
            except (OSError, FaultInjected) as exc:
                # Keep sweeping from memory; resumability is lost but
                # the run is not.
                self.persistent = False
                self.downgrades += 1
                sys.stderr.write(
                    "repro: point cache unwritable (%s: %s); "
                    "continuing memory-only\n" % (type(exc).__name__, exc)
                )
        self.stores += 1

    def _write_entry(self, key: str, result: Dict[str, Any]) -> None:
        _fault.hit("pointcache.save")
        os.makedirs(self.dir, exist_ok=True)
        payload = json.dumps(
            {"key": key, "result": result, "check": self._checksum(key, result)},
            sort_keys=True,
        )
        fd, tmp_path = tempfile.mkstemp(dir=self.dir, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, os.path.join(self.dir, key + ".json"))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def stats_snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "downgrades": self.downgrades,
        }


# ----------------------------------------------------------------------
# quarantined points
# ----------------------------------------------------------------------
class FailedPoint:
    """Stand-in result for a quarantined sweep cell.

    Every (non-dunder) attribute reads as ``nan``, so table builders
    written against :class:`CostReport` render a degraded cell instead
    of crashing; aggregation code skips it via ``isinstance`` checks.
    Failed points are never written to the point cache — a rerun
    retries them from scratch.
    """

    def __init__(self, point: SweepPoint, error: Any, attempts: int) -> None:
        self.point = point
        self.error = error
        self.attempts = attempts

    def __getattr__(self, name: str) -> float:
        if name.startswith("__"):
            raise AttributeError(name)
        return float("nan")

    def __repr__(self) -> str:
        return "FailedPoint(%s, attempts=%d, error=%r)" % (
            point_label(self.point),
            self.attempts,
            str(self.error),
        )


# ----------------------------------------------------------------------
# point execution
# ----------------------------------------------------------------------
def _report_to_payload(report: CostReport) -> Dict[str, Any]:
    payload = dataclasses.asdict(report)
    payload["kind"] = "workload"
    return payload


def _payload_to_result(payload: Dict[str, Any]) -> Any:
    payload = dict(payload)
    kind = payload.pop("kind", "workload")
    if kind == "deep":
        return payload["avg_io"]
    return CostReport(**payload)


def execute_point(
    point: SweepPoint, db_cache: Optional[DatabaseCache] = None
) -> Dict[str, Any]:
    """Measure one point, returning a JSON-able result payload."""
    _fault.hit("point.poison")
    if point.kind == "deep":
        return {"kind": "deep", "avg_io": _execute_deep(point, db_cache)}
    return _report_to_payload(_execute_workload(point, db_cache))


def _execute_workload(
    point: SweepPoint, db_cache: Optional[DatabaseCache]
) -> CostReport:
    params = point.params
    if params is None:
        raise PointFailed("workload point without params: %r" % (point,), point=point)
    strategy = make_strategy(point.strategy, **dict(point.strategy_kwargs))
    if db_cache is None:
        db_cache = DatabaseCache()
    db = database_for(
        params,
        strategy,
        db_cache.get,
        cache=point.db_cache,
        procedural=point.db_procedural,
    )
    if point.sequence == "mixed":
        if not point.mix_num_tops:
            raise PointFailed(
                "mixed-sequence point without mix_num_tops", point=point
            )
        sequence = generate_mixed_sequence(
            params,
            list(point.mix_num_tops),
            db,
            num_retrieves=point.num_retrieves,
        )
    else:
        sequence = generate_sequence(
            params,
            db,
            num_retrieves=adaptive_queries(params.num_top, point.num_retrieves),
        )
    if point.warmup is not None:
        warmup = point.warmup
    else:
        warmup = int(len(sequence) * point.warmup_fraction)
    tracer = None
    if point.traced:
        from repro.obs import MetricsRegistry, Tracer

        # A private registry per point: pooled workers reuse processes,
        # so the module-global registry would accumulate across points.
        tracer = Tracer(registry=MetricsRegistry(), keep_events=False)
    return run_sequence(
        db,
        strategy,
        sequence,
        cold_retrieves=point.cold_retrieves,
        warmup=warmup,
        tracer=tracer,
    )


def _execute_deep(point: SweepPoint, db_cache: Optional[DatabaseCache]) -> float:
    from repro.core.deep import DeepQuery, deep_bfs, deep_dfs
    from repro.core.measure import CostMeter
    from repro.util.rng import derive_rng

    runners = {
        "dfs": deep_dfs,
        "bfs": lambda db, query, meter: deep_bfs(db, query, meter, dedup=False),
        "nodup": lambda db, query, meter: deep_bfs(db, query, meter, dedup=True),
    }
    if point.runner not in runners:
        raise PointFailed("unknown deep runner %r" % (point.runner,), point=point)
    if db_cache is None:
        db_cache = DatabaseCache()
    base = point.deep_params
    db = db_cache.get_deep(base)
    run_query = runners[point.runner]
    rng = derive_rng(base.seed, stream=point.depth)
    total = 0
    for _ in range(point.queries):
        _deadline.check_active("deep query")
        lo = rng.randrange(max(1, base.num_roots - point.span + 1))
        query = DeepQuery(lo, lo + point.span - 1, point.depth)
        db.start_measurement(cold=True)
        meter = CostMeter(db.disk)
        run_query(db, query, meter)
        total += meter.total_cost
    return total / point.queries


# ----------------------------------------------------------------------
# retries, deadlines and recovery
# ----------------------------------------------------------------------
@contextmanager
def _point_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`WorkerLost` if the body outlives ``seconds``.

    Two mechanisms layer.  A cooperative monotonic
    :class:`~repro.util.deadline.Deadline` is enforced for the body
    (the measurement driver checks it between operations), which works
    on *any* thread — the historic bug was that ``SIGALRM`` silently
    no-opped off the main thread, so embedded or threaded sweeps ran
    without a timeout.  On the main thread of SIGALRM platforms the
    alarm stays armed as a backstop that interrupts even a single
    operation that never reaches a cooperative checkpoint.  Both paths
    surface as :class:`WorkerLost`, so retry/timeout accounting is
    identical regardless of which one fired.
    """
    if not seconds:
        yield
        return
    use_alarm = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )

    def _timed_out(signum: int, frame: Any) -> None:
        raise WorkerLost("point exceeded its %.3gs deadline" % seconds)

    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _timed_out)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with _deadline.enforced(_deadline.Deadline.after(seconds)):
            yield
    except DeadlineExceeded:
        raise WorkerLost(
            "point exceeded its %.3gs deadline" % seconds
        ) from None
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _execute_with_recovery(
    point: SweepPoint,
    db_cache: DatabaseCache,
    policy: RetryPolicy,
    counters: Dict[str, Any],
) -> Dict[str, Any]:
    """Run one point with the policy's retry/deadline budget.

    Failures are retried with exponential backoff against a freshly
    materialized database (the previous attempt may have left a
    half-mutated clone; re-attaching is deterministic, so the retry's
    measurement is identical to an undisturbed run).  Raises
    :class:`PointFailed` once the budget is exhausted — or immediately
    for malformed specs, which no retry can fix.
    """
    attempts = 0
    while True:
        try:
            with _point_deadline(policy.point_timeout):
                return execute_point(point, db_cache)
        except PointFailed:
            raise
        except Exception as exc:  # KeyboardInterrupt/SystemExit pass through
            attempts += 1
            if isinstance(exc, WorkerLost):
                counters["timeouts"] += 1
            if attempts > policy.max_retries:
                raise PointFailed(
                    "point %s failed after %d attempt(s): %s"
                    % (point_label(point), attempts, exc),
                    point=point,
                    attempts=attempts,
                    cause=exc,
                )
            counters["retries"] += 1
            db_cache.clear()
            time.sleep(policy.backoff_seconds * (2 ** (attempts - 1)))


# ----------------------------------------------------------------------
# the sweep engine
# ----------------------------------------------------------------------
_WORKER_DB_CACHE: Optional[DatabaseCache] = None
_WORKER_POLICY: RetryPolicy = DEFAULT_POLICY


def _init_worker(
    store_root: Optional[str] = None,
    plan: Optional["_fault.FaultPlan"] = None,
    policy: Optional[RetryPolicy] = None,
) -> None:
    global _WORKER_DB_CACHE, _WORKER_POLICY
    _fault.mark_worker()
    if plan is not None:
        _fault.install(plan)
    store = SnapshotStore(store_root) if store_root else None
    _WORKER_DB_CACHE = DatabaseCache(max_entries=WORKER_DB_CACHE_SIZE, store=store)
    _WORKER_POLICY = policy or RetryPolicy()


def _stats_delta(
    after: Dict[str, Any], before: Dict[str, Any]
) -> Dict[str, Any]:
    """Counter-wise ``after - before`` (workers' caches are long-lived)."""
    return {key: after[key] - before.get(key, 0) for key in after}


def _injection_delta(
    after: Dict[str, int], before: Dict[str, int]
) -> Dict[str, int]:
    return {
        site: after[site] - before.get(site, 0)
        for site in after
        if after[site] - before.get(site, 0)
    }


def _run_task(
    point: SweepPoint,
    db_cache: Optional[DatabaseCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """Execute one point with its retries, for either executor.

    A pool worker calls this with the point alone and runs against the
    state :func:`_init_worker` left in the process; the in-process
    executor passes its own ``db_cache`` and ``policy``.  Returns
    ``(payload, db_stats_delta, task_counters)``.  A point that
    exhausts its retries comes back as a ``kind="failed"`` payload
    rather than an exception, so its database-cache telemetry still
    reaches the parent.  The ``worker.crash``/``worker.hang`` sites fire
    here — before any measurement, and in worker processes only — to
    exercise the parent's pool-recovery machinery.
    """
    _fault.hit("worker.crash")
    _fault.hit("worker.hang")
    in_worker = db_cache is None
    if in_worker:
        db_cache, policy = _WORKER_DB_CACHE, _WORKER_POLICY
    task_counters: Dict[str, Any] = {"retries": 0, "timeouts": 0}
    # A worker fires its own copy of the plan, which the parent cannot
    # see.  In-process the plan is the parent's, and run_sweep counts it
    # once, from the plan itself.
    plan = _fault.active() if in_worker else None
    injections_before = dict(plan.injections) if plan is not None else {}
    before = db_cache.stats_snapshot()
    try:
        with _spans.span("point.execute"):
            payload = _execute_with_recovery(point, db_cache, policy, task_counters)
    except PointFailed as exc:
        payload = {
            "kind": "failed",
            "error": str(exc.cause or exc),
            "attempts": exc.attempts,
        }
    # Delta, not totals: a worker's cache and the store singleton's
    # counters outlive the task.
    delta = _stats_delta(db_cache.stats_snapshot(), before)
    if plan is not None:
        task_counters["injections"] = _injection_delta(
            plan.injections, injections_before
        )
    return payload, delta, task_counters


def _dispatch_key(point: SweepPoint) -> Tuple:
    """Sort key grouping points that can share one built database."""
    if point.kind == "deep":
        return ("deep", repr(point.deep_params))
    strategy = make_strategy(point.strategy, **dict(point.strategy_kwargs))
    shape = strategy.database_shape(point.db_cache, point.db_procedural)
    return ("workload",) + DatabaseCache().shape_key(point.params, **shape)


def _cost_estimate(point: SweepPoint) -> float:
    """Relative work estimate of one point, for dispatch ordering only.

    Workload points scale with the query count times the objects touched
    per query (``num_top``); deep points with queries × span × depth.
    The estimate never influences a measurement — only the order points
    leave the dispatch queue.
    """
    if point.kind == "deep":
        return float(
            (point.queries or 1) * (point.span or 1) * max(1, point.depth or 1)
        )
    params = point.params
    if params is None:
        return 1.0
    if point.sequence == "mixed" and point.mix_num_tops:
        tops = list(point.mix_num_tops)
    else:
        tops = [params.num_top]
    queries = adaptive_queries(max(tops), point.num_retrieves)
    return float(queries) * (sum(tops) / len(tops))


def _dispatch_order(points: Sequence[SweepPoint], pending: Sequence[int]) -> List[int]:
    """Cost-aware dispatch order for the parallel queue.

    Points are grouped by the database they need (contiguous dispatch
    keeps a worker's local :class:`DatabaseCache` warm) and the groups
    are ordered heaviest-total-cost first — the longest-processing-time
    heuristic, so the expensive shapes start immediately and the cheap
    ones backfill the tail instead of straggling at the end.  Within a
    group the costliest points go first for the same reason.
    """
    groups: Dict[Tuple, List[int]] = {}
    for i in pending:
        groups.setdefault(_dispatch_key(points[i]), []).append(i)
    costs = {i: _cost_estimate(points[i]) for i in pending}
    order: List[int] = []
    for _key, members in sorted(
        groups.items(), key=lambda item: (-sum(costs[i] for i in item[1]), item[0])
    ):
        order.extend(sorted(members, key=lambda i: (-costs[i], i)))
    return order


def resolve_jobs(jobs: Any) -> int:
    """A ``--jobs`` value as a worker count (``"auto"`` → all cores)."""
    if jobs is None or jobs == "auto":
        return max(1, os.cpu_count() or 1)
    count = int(jobs)
    if count < 1:
        raise ValueError("jobs must be >= 1, got %r" % (jobs,))
    return count


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> List[Any]:
    """Measure every point; results come back in input order.

    One dispatch loop serves both modes: ``jobs=1`` (the default, and
    what the tests exercise) drives it with an in-process executor and
    one shared :class:`DatabaseCache`; ``jobs>1`` fans uncached points
    out over a worker pool.  With a ``cache``, previously finished
    points are answered from disk and only the remainder is computed
    (each stored atomically the moment it completes).  ``policy``
    (default :data:`DEFAULT_POLICY`) budgets retries, per-point
    deadlines and pool restarts; a point that exhausts the budget yields
    a :class:`FailedPoint` in its slot and the sweep continues.
    """
    policy = policy or DEFAULT_POLICY
    t_start = time.perf_counter()
    counters: Dict[str, Any] = {
        "injections": {},
        "retries": 0,
        "timeouts": 0,
        "pool_restarts": 0,
        "downgrades": 0,
        "quarantined": [],
    }
    plan = _fault.active()
    injections_before = dict(plan.injections) if plan is not None else {}
    cache_before = cache.stats_snapshot() if cache is not None else {}

    results: List[Any] = [None] * len(points)
    keys: List[Optional[str]] = [None] * len(points)
    pending: List[int] = []
    with _spans.span("sweep.schedule"):
        for i, point in enumerate(points):
            payload = None
            if cache is not None:
                keys[i] = point_key(point)
                payload = cache.get(keys[i])
            if payload is not None:
                results[i] = _payload_to_result(payload)
            else:
                pending.append(i)

    hits = len(points) - len(pending)
    progress = _PROGRESS
    if progress is not None:
        progress("sweep_start",
                 {"total": len(points), "cache_hits": hits, "jobs": jobs})
    db_stats: Dict[str, Any] = {}
    if pending:
        try:
            db_stats = _dispatch(
                points, pending, keys, results, cache, jobs, policy, counters
            )
        except KeyboardInterrupt:
            completed = sum(1 for result in results if result is not None)
            raise SweepInterrupted(completed, len(points)) from None

    # The parent's own fires (in-process points, point-cache writes)
    # plus what the workers' copies of the plan reported with each task.
    injections = _injection_delta(
        plan.injections if plan is not None else {}, injections_before
    )
    for site, count in counters["injections"].items():
        injections[site] = injections.get(site, 0) + count
    cache_stats = (
        _stats_delta(cache.stats_snapshot(), cache_before)
        if cache is not None
        else {}
    )
    faults = {
        "injections": injections,
        "retries": counters["retries"],
        "timeouts": counters["timeouts"],
        "pool_restarts": counters["pool_restarts"],
        "downgrades": counters["downgrades"]
        + db_stats.get("downgrades", 0)
        + cache_stats.get("downgrades", 0),
        "cache_corrupt": cache_stats.get("corrupt", 0)
        + db_stats.get("corrupt", 0),
        "quarantined": list(counters["quarantined"]),
    }
    _record_fault_metrics(faults)

    entry = {
        "points": len(points),
        "cache_hits": hits,
        "executed": len(pending),
        "jobs": jobs,
        "seconds": time.perf_counter() - t_start,
        "db": db_stats,
        "faults": faults,
    }
    entry.update(_aggregate_reports(results))
    SWEEP_LOG.append(entry)
    if progress is not None:
        progress("sweep_end", entry)
    return results


def _record_fault_metrics(faults: Dict[str, Any]) -> None:
    """Mirror one sweep's fault/recovery counters into the obs registry."""
    from repro.obs import registry

    reg = registry()
    for site, count in faults["injections"].items():
        reg.inc("fault.injections", count, site=site)
    for name in ("retries", "timeouts", "pool_restarts", "downgrades",
                 "cache_corrupt"):
        if faults[name]:
            reg.inc("fault.%s" % name, faults[name])
    if faults["quarantined"]:
        reg.inc("fault.quarantined", len(faults["quarantined"]))


def _aggregate_reports(results: Sequence[Any]) -> Dict[str, Any]:
    """Sweep-level buffer-pool and I/O totals over the CostReport rows.

    Deep points contribute nothing (their result is a bare float), and
    neither do quarantined :class:`FailedPoint` cells; the buffer
    counters come from each report's :class:`PoolStats` delta, so
    cached and freshly executed points aggregate identically.
    """
    buffer = {"hits": 0, "misses": 0, "evictions": 0, "dirty_evictions": 0}
    io = {"retrieve": 0, "update": 0, "parent": 0, "child": 0}
    reports = 0
    for result in results:
        if not isinstance(result, CostReport):
            continue
        reports += 1
        io["retrieve"] += result.retrieve_io
        io["update"] += result.update_io
        io["parent"] += result.par_cost
        io["child"] += result.child_cost
        if result.buffer_stats:
            for key in buffer:
                buffer[key] += result.buffer_stats.get(key, 0)
    return {"reports": reports, "buffer": buffer, "io": io}


class _InProcessExecutor:
    """The executor interface over this process: ``submit`` runs the task.

    What ``jobs=1`` uses, and what a sweep whose pools keep failing
    swaps in.  Points share one :class:`DatabaseCache` over the
    process-wide store for the executor's lifetime, bounded like a pool
    worker's (:data:`WORKER_DB_CACHE_SIZE`).
    """

    def __init__(self, policy: RetryPolicy) -> None:
        self._db_cache = DatabaseCache(
            max_entries=WORKER_DB_CACHE_SIZE, store=_db_store()
        )
        self._policy = policy

    def submit(self, fn: Any, point: SweepPoint) -> "Future[Any]":
        # The ``sweep.kill`` site SIGKILLs the process here — *between*
        # points — so every completed point is already checkpointed.
        _fault.hit("sweep.kill")
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(point, self._db_cache, self._policy))
        except Exception as exc:  # KeyboardInterrupt reaches run_sweep
            future.set_exception(exc)
        return future

    def shutdown(self, **_kwargs: Any) -> None:
        pass


def _shutdown_hard(executor: Any) -> None:
    """Shut an executor down without waiting for (or sparing) its workers."""
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(1.0)


def _dispatch(
    points: Sequence[SweepPoint],
    pending: List[int],
    keys: List[Optional[str]],
    results: List[Any],
    cache: Optional[PointCache],
    jobs: int,
    policy: RetryPolicy,
    counters: Dict[str, Any],
) -> Dict[str, Any]:
    """Run ``pending`` through an executor, checkpointing every point.

    The loop is the same whichever executor it drives: submit up to
    ``width`` tasks, turn finished ones into results, recover from lost
    ones.  With ``jobs > 1`` and more than one point the executor is a
    process pool and the parent is its watchdog: a crashed worker breaks
    the whole pool (``BrokenExecutor``), so the pool is rebuilt and
    unfinished points re-dispatched; a worker that hangs past
    ``policy.point_timeout`` is detected by deadline, its pool is torn
    down the same way, and the hung point is charged an attempt.  After
    ``policy.max_pool_restarts`` rebuilds the sweep stops trusting
    process pools, swaps in the in-process executor and keeps looping (a
    logged downgrade, never an abort).  Returns the summed database
    cache counters of the executed tasks.
    """
    progress = _PROGRESS
    plan = _fault.active()
    db_stats: Dict[str, Any] = {}
    restarts = 0

    def make_pool() -> Any:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        method = "fork" if "fork" in mp.get_all_start_methods() else None
        return ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=mp.get_context(method),
            initializer=_init_worker,
            initargs=(DB_STORE_ROOT, plan, policy),
        )

    if jobs > 1 and len(pending) > 1:
        # Cost-aware longest-first order (see _dispatch_order).  The
        # shared ``todo`` deque is the work-stealing queue: the parent
        # hands each free worker exactly one point at a time, so a
        # worker that drains its database group simply steals the next
        # pending point — no worker idles behind a static partition
        # while another has backlog.
        order = _dispatch_order(points, pending)
        executor: Any = make_pool()
        width = jobs
    else:
        order = pending
        executor = _InProcessExecutor(policy)
        width = 1
    todo: "deque[int]" = deque(order)
    attempts: Dict[int, int] = {}
    running: Dict[Any, Tuple[int, float]] = {}

    def quarantine(index: int, error: Any, tries: int) -> None:
        results[index] = FailedPoint(points[index], error, tries)
        counters["quarantined"].append(point_label(points[index]))
        if progress is not None:
            progress("point_done", {"index": index, "failed": True})

    def finish(index: int, payload: Dict[str, Any], delta: Dict[str, Any],
               task_counters: Dict[str, Any]) -> None:
        for key, value in delta.items():
            db_stats[key] = db_stats.get(key, 0) + value
        counters["retries"] += task_counters["retries"]
        counters["timeouts"] += task_counters["timeouts"]
        injections = counters["injections"]
        for site, count in task_counters.get("injections", {}).items():
            injections[site] = injections.get(site, 0) + count
        if payload.get("kind") == "failed":
            quarantine(index, payload["error"], payload["attempts"])
            return
        if cache is not None and keys[index] is not None:
            with _spans.span("point.cache_write"):
                cache.put(keys[index], payload)
        results[index] = _payload_to_result(payload)
        if progress is not None:
            progress("point_done", {"index": index, "failed": False})

    def charge_attempt(index: int, error: BaseException) -> None:
        """One failed parent-side attempt for ``index`` (requeue or give up)."""
        attempts[index] = attempts.get(index, 0) + 1
        if attempts[index] > policy.max_retries:
            quarantine(index, error, attempts[index])
        else:
            counters["retries"] += 1
            todo.append(index)

    def replace_pool(requeue: List[int]) -> None:
        """Tear the pool down; re-dispatch ``requeue`` on its successor."""
        nonlocal executor, restarts, width
        todo.extendleft(requeue)
        running.clear()
        restarts += 1
        counters["pool_restarts"] += 1
        _shutdown_hard(executor)
        if restarts <= policy.max_pool_restarts:
            executor = make_pool()
            return
        counters["downgrades"] += 1
        sys.stderr.write(
            "repro: worker pool failed %d times; finishing the sweep "
            "in-process without a pool\n" % restarts
        )
        executor = _InProcessExecutor(policy)
        width = 1

    try:
        while todo or running:
            # Submit at most one task per worker, so a future's age
            # approximates its execution time (deadline accuracy).
            broken = False
            while todo and len(running) < width:
                i = todo.popleft()
                try:
                    future = executor.submit(_run_task, points[i])
                except BrokenExecutor:
                    todo.appendleft(i)
                    broken = True
                    break
                running[future] = (i, time.monotonic())
            if not broken:
                done, _ = wait(
                    set(running), timeout=0.2, return_when=FIRST_COMPLETED
                )
                for future in done:
                    index, _t0 = running.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenExecutor:
                        # The worker died; innocents die with it.
                        # Re-dispatch without charging an attempt —
                        # the restart budget bounds crash loops.
                        todo.appendleft(index)
                        broken = True
                    except Exception as exc:
                        charge_attempt(index, exc)
                    else:
                        finish(index, *outcome)
            if broken:
                replace_pool([index for index, _t0 in running.values()])
            elif policy.point_timeout and running:
                now = time.monotonic()
                hung = [
                    index
                    for index, t0 in running.values()
                    if now - t0 > policy.point_timeout
                ]
                if hung:
                    innocent = [
                        index for index, _t0 in running.values()
                        if index not in hung
                    ]
                    for index in hung:
                        counters["timeouts"] += 1
                        charge_attempt(
                            index,
                            WorkerLost(
                                "worker exceeded the %.3gs point deadline"
                                % policy.point_timeout
                            ),
                        )
                    replace_pool(innocent)
    except KeyboardInterrupt:
        # Flush whatever already finished so those points stay
        # checkpointed, then terminate the workers and let run_sweep
        # translate this into SweepInterrupted.
        for future, (index, _t0) in list(running.items()):
            if future.done():
                try:
                    outcome = future.result()
                except BaseException:
                    continue
                finish(index, *outcome)
        raise
    finally:
        _shutdown_hard(executor)
    return db_stats
