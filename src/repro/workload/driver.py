"""The measurement driver (the paper's EQUEL/C driver program).

Section 4: "The driver first generated a sequence of random queries
satisfying some parameters.  Depending on the query processing strategy
being studied, an optimal plan for each query in the sequence was then
generated.  The plan was then run on the database, and the average I/O
performance noted."

:func:`run_sequence` plays that role: it executes a sequence under one
strategy, reading the disk's I/O counters around every operation, and
returns a :class:`CostReport`.  The measured interval is zero-then-read:
the disk, buffer-pool and unit-cache counters are zeroed at its start
(after any warm-up) and each is read once at its end.  The headline
number —
``avg_io_per_retrieve`` — is total sequence I/O divided by the number of
retrieve queries (updates and cache invalidations are real work the
workload pays for; amortising them over the retrieves is how a mixed
sequence's "average I/O cost" is meaningful).  The ParCost/ChildCost
breakdown of Figure 5 comes from the strategies' phase attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.database import ComplexObjectDB
from repro.core.measure import CostMeter
from repro.core.queries import RetrieveQuery, UpdateQuery
from repro.core.strategies.base import Strategy, make_strategy
from repro.obs import spans as _spans
from repro.util import deadline as _deadline
from repro.util.stats import RunningStats
from repro.workload.generator import build_database
from repro.workload.params import WorkloadParams
from repro.workload.queries import Operation, generate_sequence


@dataclass
class CostReport:
    """Measured costs of one (database, strategy, sequence) run."""

    strategy: str
    num_retrieves: int
    num_updates: int
    total_io: int
    retrieve_io: int
    update_io: int
    par_cost: int
    child_cost: int
    per_retrieve: Dict[str, float]
    cache_stats: Optional[Dict[str, Any]] = None
    #: Buffer-pool hit/miss/eviction counters of the measured interval
    #: (zeroed at its start, read once at its end).
    buffer_stats: Optional[Dict[str, int]] = None
    #: Traced event-stream summary (only when run with a tracer); see
    #: :meth:`repro.obs.Tracer.summary`.
    traced: Optional[Dict[str, Any]] = None

    @property
    def avg_io_per_retrieve(self) -> float:
        """The paper's yardstick: sequence I/O amortised per retrieve."""
        if not self.num_retrieves:
            return 0.0
        return self.total_io / self.num_retrieves

    @property
    def avg_retrieve_io(self) -> float:
        """Average I/O of the retrieve queries alone."""
        if not self.num_retrieves:
            return 0.0
        return self.retrieve_io / self.num_retrieves

    @property
    def par_cost_per_retrieve(self) -> float:
        if not self.num_retrieves:
            return 0.0
        return self.par_cost / self.num_retrieves

    @property
    def child_cost_per_retrieve(self) -> float:
        if not self.num_retrieves:
            return 0.0
        return self.child_cost / self.num_retrieves

    @property
    def buffer_hit_rate(self) -> float:
        """Buffer-pool hits over accesses in the measured interval."""
        stats = self.buffer_stats or {}
        accesses = stats.get("hits", 0) + stats.get("misses", 0)
        return stats["hits"] / accesses if accesses else 0.0


def run_sequence(
    db: ComplexObjectDB,
    strategy: Strategy,
    sequence: Sequence[Operation],
    cold_retrieves: bool = False,
    warmup: int = 0,
    tracer=None,
) -> CostReport:
    """Execute ``sequence`` under ``strategy`` and measure I/O.

    Every run starts from a clean slate — cold buffer pool, empty cache
    — so consecutive runs over the same database are comparable.

    ``cold_retrieves`` models the paper's Pr(UPDATE) -> 1 limit (used for
    Figures 5 and 7): between consecutive retrieves an unbounded stream
    of updates has churned the buffer pool, so every retrieve starts with
    no residue from the previous one.  The buffer is flushed (write-backs
    charged to the preceding interval) before each retrieve.

    ``warmup`` executes that many leading operations unmeasured before
    the counters are zeroed (so the unit-cache counters, like the disk
    and buffer ones, exclude them).  The paper's 1000-query sequences
    amortise the cold start away; short reproduction sequences
    approximate the same steady state by warming the cache/buffer first.

    ``tracer`` (a :class:`repro.obs.Tracer`) captures every physical
    page access of the run as a structured event.  The traced summary
    lands in ``report.traced`` and is cross-checked against the report's
    own numbers — a mismatch raises
    :class:`~repro.obs.trace.TraceValidationError`, because both views
    count the same disk accesses and must agree exactly.
    """
    if tracer is None:
        return _run_measured(db, strategy, sequence, cold_retrieves, warmup)
    from repro.obs.trace import TraceValidationError, validate_report

    tracer.strategy = strategy.name
    with tracer.observe(db.disk):
        report = _run_measured(db, strategy, sequence, cold_retrieves, warmup, tracer)
    with _spans.span("point.validate"):
        report.traced = tracer.summary()
        problems = validate_report(report, report.traced)
    if problems:
        raise TraceValidationError(
            "traced totals diverge from reported costs: %s" % "; ".join(problems)
        )
    return report


def _run_measured(
    db: ComplexObjectDB,
    strategy: Strategy,
    sequence: Sequence[Operation],
    cold_retrieves: bool,
    warmup: int,
    tracer=None,
) -> CostReport:
    strategy.check_database(db)
    db.reset_cache()
    db.pool.clear(flush=True)
    if warmup:
        for op in sequence[:warmup]:
            if isinstance(op, RetrieveQuery):
                strategy.retrieve(db, op)
            else:
                strategy.update(db, op)
        sequence = sequence[warmup:]
    # The measured interval starts here: zero every counter it reports.
    db.start_measurement(cold=False)

    meter = CostMeter(db.disk, tracer=tracer)
    per_retrieve = RunningStats()
    retrieves = 0
    updates = 0
    retrieve_io = 0
    update_io = 0
    # Per-op accounting kernel: raw integer reads of the disk counters
    # (no IoSnapshot allocations) with the dispatch targets hoisted —
    # this loop brackets every measured query in every sweep point.
    disk = db.disk
    pool = db.pool
    do_retrieve = strategy.retrieve
    do_update = strategy.update
    add_retrieve = per_retrieve.add
    # Span profiling is hoisted once per sequence: with it off (the
    # default) the loop pays a single module-global read, and with it on
    # every measured operation runs inside a driver.retrieve /
    # driver.update span — a *real* span, not a post-hoc add, so the
    # operators' stage:* spans nest under it and the aggregate tree has
    # the per-op p50/p95/p99 latency as the stages' parent.
    prof = _spans._PROFILER
    # Cooperative cancellation point: one thread-local read per op when
    # no deadline is enforced, a DeadlineExceeded once the innermost
    # enforced() deadline of this thread has passed.  This is what lets
    # --point-timeout work off the main thread and lets serve requests
    # abort mid-sequence.
    check_deadline = _deadline.check_active
    for index, op in enumerate(sequence):
        check_deadline("measured sequence")
        is_retrieve = isinstance(op, RetrieveQuery)
        if is_retrieve:
            if cold_retrieves:
                pool.clear(flush=True)
            before = disk.reads + disk.writes
            if tracer is not None:
                tracer.begin_op("retrieve", index)
            if prof is not None:
                with prof.span("driver.retrieve"):
                    do_retrieve(db, op, meter)
            else:
                do_retrieve(db, op, meter)
            delta = disk.reads + disk.writes - before
            add_retrieve(delta)
            retrieve_io += delta
            retrieves += 1
        elif isinstance(op, UpdateQuery):
            before = disk.reads + disk.writes
            if tracer is not None:
                tracer.begin_op("update", index)
            if prof is not None:
                with prof.span("driver.update"):
                    do_update(db, op, meter)
            else:
                do_update(db, op, meter)
            update_io += disk.reads + disk.writes - before
            updates += 1
        else:
            raise TypeError("unknown operation %r" % (op,))
        if tracer is not None:
            tracer.end_op()

    cache_stats = None
    if strategy.uses_cache and db.cache is not None:
        stats = db.cache.stats
        cache_stats = {
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": stats.hit_rate,
            "insertions": stats.insertions,
            "evictions": stats.evictions,
            "invalidations": stats.invalidations,
            "cached_units": db.cache.num_cached,
        }

    return CostReport(
        strategy=strategy.name,
        num_retrieves=retrieves,
        num_updates=updates,
        total_io=retrieve_io + update_io,
        retrieve_io=retrieve_io,
        update_io=update_io,
        par_cost=meter.par_cost,
        child_cost=meter.child_cost,
        per_retrieve=per_retrieve.as_dict(),
        cache_stats=cache_stats,
        buffer_stats=db.pool.stats.as_dict(),
    )


def database_for(
    params: WorkloadParams,
    strategy: Strategy,
    build: Callable[..., ComplexObjectDB] = build_database,
    **forced: Any,
) -> ComplexObjectDB:
    """The database ``strategy`` needs, from ``build(params, **shape)``.

    ``build`` is :func:`build_database` or a ``DatabaseCache.get``;
    ``forced`` goes to :meth:`Strategy.database_shape`.  The inside
    cache is no part of a stored shape: it is enabled on the result.
    """
    db = build(params, **strategy.database_shape(**forced))
    if strategy.uses_inside_cache and db.inside_cache is None:
        db.enable_inside_cache(
            params.size_cache, unit_bytes_hint=params.size_unit * params.child_bytes
        )
    return db


def measure_strategy(
    params: WorkloadParams,
    strategy_name: str,
    db: Optional[ComplexObjectDB] = None,
    sequence: Optional[Sequence[Operation]] = None,
    **strategy_kwargs: Any,
) -> CostReport:
    """Convenience wrapper: build what is missing, run, report.

    A database built here gets exactly the facilities the strategy needs
    (:func:`database_for`: clustering for DFSCLUST, a cache for
    DFSCACHE/SMART, stored procedures for PROC-*).
    """
    strategy = make_strategy(strategy_name, **strategy_kwargs)
    if db is None:
        db = database_for(params, strategy)
    if sequence is None:
        sequence = generate_sequence(params, db)
    return run_sequence(db, strategy, sequence)
