"""Shared experiment machinery.

Every experiment module (one per paper figure/table) follows the same
recipe: build databases over a parameter sweep, run each strategy on a
random query sequence, and tabulate the average I/O per retrieve.  This
module centralises:

* :class:`ExperimentResult` — rows + rendered table, so benchmarks and
  the CLI print exactly the series the paper plots;
* :func:`adaptive_queries` — fewer queries for huge-NumTop points (their
  per-query variance is tiny and their per-query cost is large), keeping
  pure-Python sweeps tractable without biasing averages;
* :func:`run_point` — build/reuse a database, run one strategy, return
  its report.

Databases are cached per shape (the parameters that affect the stored
bytes), because a sweep over NumTop or Pr(UPDATE) can reuse one database;
updates only rewrite integer fields in place, and the driver resets the
cache, buffer pool and counters between runs.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultInjected
from repro.obs import spans as _spans
from repro.storage.snapshot import Snapshot, SnapshotStore
from repro.util.fmt import format_table
from repro.workload.driver import CostReport
from repro.workload.generator import build_database
from repro.workload.params import WorkloadParams

#: Target total I/O-bearing work per measured point, used to shrink the
#: number of queries at large NumTop.
_QUERY_BUDGET = 4000


@dataclass
class ExperimentResult:
    """Tabulated outcome of one experiment."""

    name: str
    title: str
    headers: List[str]
    rows: List[List[Any]]
    notes: List[str] = field(default_factory=list)

    def table(self) -> str:
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += "\n" + "\n".join("note: %s" % n for n in self.notes)
        return text

    def column(self, header: str) -> List[Any]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.headers, row)) for row in self.rows]

    def to_csv(self) -> str:
        """The rows as CSV text (headers first), for external plotting."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def write_csv(self, path: str) -> None:
        """Write :meth:`to_csv` output to ``path``."""
        with open(path, "w", newline="") as handle:
            handle.write(self.to_csv())

    def to_json(self) -> str:
        """The result as a JSON document (name, title, headers, rows, notes)."""
        import json

        return json.dumps(
            {
                "name": self.name,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "notes": self.notes,
            },
            indent=2,
            sort_keys=True,
        )

    def write_json(self, path: str) -> None:
        """Write :meth:`to_json` output to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")


def adaptive_queries(num_top: int, requested: Optional[int] = None) -> int:
    """Number of retrieves to run for a NumTop point.

    The paper ran 1000 retrieves per sequence on real hardware; in pure
    Python a NumTop=10,000 retrieve touches every parent page, so running
    1000 of them buys nothing but time.  Cost variance shrinks with
    NumTop (more pages per query -> relatively less placement noise), so
    the sample size can shrink proportionally.
    """
    if requested is not None:
        return requested
    return max(5, min(200, _QUERY_BUDGET // max(1, num_top)))


class DatabaseCache:
    """Reuses built databases across sweep points with the same shape.

    ``max_entries`` bounds the cache (least-recently-used eviction) so a
    long sweep — or a pool worker that sees many shapes — cannot hold
    every database it ever built.  Rebuilding an evicted database is
    fully deterministic, so a bound never changes measured results.
    In snapshot mode this bound and the store's memory tier decide
    which loaded arenas a sweep keeps mapped (the arena registry keeps
    none alive); an evicted shape is re-parsed from its file when it
    comes back.

    Without a store, the cache holds live databases and later points
    *reuse* them, mutations and all (the driver's reset contract keeps
    measured costs identical either way).

    With a :class:`~repro.storage.snapshot.SnapshotStore`, the cache
    operates in *snapshot mode*: it holds immutable
    :class:`~repro.storage.snapshot.Snapshot` templates and every
    :meth:`get` attaches a **fresh copy-on-write clone** (milliseconds).
    Each point then executes against pristine state, so a measurement —
    including its full traced event stream — is independent of which
    points ran before it, in this process or any worker.  That history
    independence is what makes fault recovery exact: a retried, killed
    or re-dispatched point replays bit-identically.  A store read or
    write failure degrades *persistence* only (snapshots stay in the
    in-process LRU); snapshot mode itself is never lost mid-sweep.
    """

    #: Parameters that change the stored data (anything else can vary
    #: between runs against one database).
    SHAPE_FIELDS = (
        "num_parents",
        "size_unit",
        "use_factor",
        "overlap_factor",
        "num_child_rels",
        "size_cache",
        "buffer_pages",
        "page_size",
        "buffer_policy",
        "parent_bytes",
        "child_bytes",
        "seed",
    )

    def __init__(
        self,
        max_entries: Optional[int] = None,
        store: Optional[SnapshotStore] = None,
    ) -> None:
        #: Live databases (classic mode) or Snapshot templates
        #: (snapshot mode), LRU-bounded by ``max_entries`` either way.
        self._cache: "OrderedDict[Tuple, Any]" = OrderedDict()
        self.max_entries = max_entries
        self.store = store
        #: Fixed at construction: a store request puts the cache in
        #: snapshot mode for its whole lifetime, even if the store
        #: itself is later dropped by :meth:`_degrade`.
        self.snapshot_mode = store is not None
        self.builds = 0
        self.attaches = 0
        #: The share of ``attaches`` cloned from an mmap arena; the rest
        #: cloned a template frozen in this process (its ``put`` failed
        #: and :meth:`_degrade` dropped the store).
        self.arena_attaches = 0
        self.build_seconds = 0.0
        self.attach_seconds = 0.0
        self.downgrades = 0

    def shape_key(
        self,
        params: WorkloadParams,
        clustering: bool,
        cache: bool,
        procedural: bool = False,
    ) -> Tuple:
        values = tuple(getattr(params, name) for name in self.SHAPE_FIELDS)
        return values + (clustering, cache, procedural)

    def get(
        self,
        params: WorkloadParams,
        clustering: bool = False,
        cache: bool = False,
        procedural: bool = False,
    ):
        key = self.shape_key(params, clustering, cache, procedural)
        return self._materialize(
            key,
            lambda: build_database(
                params, clustering=clustering, cache=cache, procedural=procedural
            ),
        )

    def get_deep(self, params):
        """Build/reuse a deep-hierarchy database for ``DeepParams``."""
        from repro.workload.deepgen import build_deep_database

        key = ("deep", params)
        return self._materialize(key, lambda: build_deep_database(params))

    def snapshot_for(
        self,
        params: WorkloadParams,
        clustering: bool = False,
        cache: bool = False,
        procedural: bool = False,
    ):
        """The immutable snapshot template for a shape (snapshot mode only).

        The serving layer builds its MVCC version chain on top of the
        template itself — epoch 0 is this snapshot, later epochs are
        frozen clones — so it needs the template handle, not the
        pre-attached clone :meth:`get` returns.  Shares the store (and
        therefore built artifacts) with report/sweep runs of the same
        shape.
        """
        if not self.snapshot_mode:
            raise ValueError("snapshot_for requires a store-backed cache")
        key = self.shape_key(params, clustering, cache, procedural)
        snapshot = self._cache.get(key)
        if snapshot is None:
            snapshot = self._obtain_snapshot(
                key,
                lambda: build_database(
                    params, clustering=clustering, cache=cache, procedural=procedural
                ),
            )
            self._cache[key] = snapshot
            self._evict_over_bound()
        elif self.max_entries is not None:
            self._cache.move_to_end(key)
        return snapshot

    def _materialize(self, key: Tuple, build) -> Any:
        """A runnable database for ``key``.

        Classic mode reuses the cached live database (building on a
        miss).  Snapshot mode looks up the cached (or stored) immutable
        template — freezing a fresh build on a miss — and always attaches
        a new pristine clone, so every caller gets history-independent
        state.
        """
        if not self.snapshot_mode:
            db = self._cache.get(key)
            if db is None:
                t0 = time.perf_counter()
                with _spans.span("db.build"):
                    db = build()
                self.builds += 1
                self.build_seconds += time.perf_counter() - t0
                self._cache[key] = db
                self._evict_over_bound()
            elif self.max_entries is not None:
                self._cache.move_to_end(key)
            return db
        snapshot = self._cache.get(key)
        if snapshot is None:
            snapshot = self._obtain_snapshot(key, build)
            self._cache[key] = snapshot
            self._evict_over_bound()
        elif self.max_entries is not None:
            self._cache.move_to_end(key)
        t0 = time.perf_counter()
        with _spans.span("db.attach"):
            clone = snapshot.attach()
        self.attaches += 1
        if getattr(snapshot, "is_arena", False):
            self.arena_attaches += 1
        self.attach_seconds += time.perf_counter() - t0
        return clone

    def _obtain_snapshot(self, key: Tuple, build) -> Snapshot:
        """The immutable template for ``key``: from the store, or built.

        A store failure on either path degrades persistence and falls
        back to a local deterministic build; it never aborts the sweep.
        """
        store_key = self.snapshot_key(key)
        snapshot = None
        if self.store is not None:
            try:
                snapshot = self.store.get(store_key)
            except (OSError, FaultInjected) as exc:
                self._degrade(exc)
        if snapshot is None:
            t0 = time.perf_counter()
            with _spans.span("db.build"):
                built = build()
            with _spans.span("db.freeze"):
                snapshot = Snapshot.freeze(built)
            self.builds += 1
            self.build_seconds += time.perf_counter() - t0
            if self.store is not None:
                try:
                    self.store.put(store_key, snapshot)
                except (OSError, FaultInjected) as exc:
                    self._degrade(exc)
                else:
                    # Prefer the handle the store now serves (the arena
                    # just written): cold and warm points then attach
                    # through one code path.
                    try:
                        revived = self.store.get(store_key)
                    except (OSError, FaultInjected) as exc:
                        self._degrade(exc)
                    else:
                        if revived is not None:
                            snapshot = revived
        return snapshot

    def _degrade(self, exc: BaseException) -> None:
        """Drop the persistent store after a store fault.

        Persistence is lost; snapshot mode is not.  Templates stay in
        this cache's own LRU, every point still attaches a pristine
        clone, and measurements continue bit-identically — a store that
        cannot be read or written must never sink (or skew) a sweep.
        """
        self.store = None
        self.downgrades += 1
        sys.stderr.write(
            "repro: snapshot store unavailable (%s: %s); "
            "continuing without the persistent database cache\n"
            % (type(exc).__name__, exc)
        )

    @staticmethod
    def snapshot_key(key: Tuple) -> str:
        """Stable store key for one shape (the source fingerprint is
        embedded in the store's filenames, not here)."""
        return hashlib.sha256(repr(key).encode()).hexdigest()[:32]

    def stats_snapshot(self) -> Dict[str, Any]:
        """Build/attach counters plus the store's hit counters (if any)."""
        stats: Dict[str, Any] = {
            "builds": self.builds,
            "attaches": self.attaches,
            "arena_attaches": self.arena_attaches,
            "build_seconds": self.build_seconds,
            "attach_seconds": self.attach_seconds,
            "downgrades": self.downgrades,
        }
        if self.store is not None:
            stats.update(self.store.stats)
        return stats

    def _evict_over_bound(self) -> None:
        if self.max_entries is None:
            return
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()


def run_point(
    params: WorkloadParams,
    strategy_name: str,
    db_cache: Optional[DatabaseCache] = None,
    num_retrieves: Optional[int] = None,
    cold_retrieves: bool = False,
    warmup_fraction: float = 0.0,
    **strategy_kwargs: Any,
) -> CostReport:
    """Measure one (parameter point, strategy) cell of a sweep.

    ``warmup_fraction`` runs that leading share of the sequence
    unmeasured (steady-state approximation for short sequences).

    Delegates to the sweep engine's executor in
    :mod:`repro.experiments.pool`, so one-off points and pooled sweeps
    share a single measurement code path.
    """
    from repro.experiments.pool import SweepPoint, _execute_workload

    point = SweepPoint(
        params=params,
        strategy=strategy_name,
        num_retrieves=num_retrieves,
        cold_retrieves=cold_retrieves,
        warmup_fraction=warmup_fraction,
        strategy_kwargs=tuple(sorted(strategy_kwargs.items())),
    )
    return _execute_workload(point, db_cache)


def scaled_num_tops(params: WorkloadParams, fractions: Sequence[float]) -> List[int]:
    """NumTop values as fractions of the parent cardinality, deduplicated."""
    values = []
    for fraction in fractions:
        value = max(1, min(params.num_parents, round(params.num_parents * fraction)))
        if value not in values:
            values.append(value)
    return values
