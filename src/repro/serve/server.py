"""The snapshot server: reader pool, single writer, consistency oracle.

Request flow::

    client -> SnapshotServer.submit -> AdmissionQueue -> reader thread
        retrieve: execute against a clone of the leased (pinned) version
        update:   handed to the writer's pending batch; acknowledged
                  only after the batch is durably *published*

Readers never block publishes and the writer never blocks readers: each
reader serves from its own clone of whatever version it has leased,
refreshing the clone when the head epoch moves on; the writer builds the
next version on a private clone and swaps the head atomically
(:class:`~repro.serve.version.VersionChain`).

Consistency is checkable after the fact: every acknowledged retrieve is
recorded as ``(epoch, op, digest)`` and every published batch as
``(epoch, [ops])``.  :func:`replay_oracle` replays the batches serially
against a fresh clone of the base snapshot and re-executes each
acknowledged retrieve at its epoch — digests must match exactly, which
pins down both snapshot isolation (no retrieve saw a half-applied
batch) and durability (no acknowledged update missing from the chain).

Ack-on-publish is what makes the mid-publish crash fault
(``serve.publish_crash``) harmless: the fault fires after the batch is
applied to the writer's private clone but *before* the publish, so the
attempt is discarded wholesale and rebuilt — clients see latency, never
a lost acknowledged write.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.strategies.base import make_strategy
from repro.errors import DeadlineExceeded, FaultInjected
from repro.fault import plan as _fault
from repro.obs.registry import MetricsRegistry
from repro.serve.admission import AdmissionQueue
from repro.serve.version import VersionChain, VersionLease
from repro.storage.snapshot import Snapshot
from repro.util.deadline import Deadline, enforced


def result_digest(values: Any) -> str:
    """Deterministic digest of one retrieve's result values."""
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()[:16]


class ServeRequest:
    """One client request travelling through the serving layer."""

    __slots__ = (
        "seq",
        "kind",
        "op",
        "traced",
        "deadline",
        "admit_ns",
        "done",
        "status",
        "epoch",
        "digest",
    )

    def __init__(
        self,
        seq: int,
        kind: str,
        op: Any,
        traced: bool = False,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self.seq = seq
        self.kind = kind  # "retrieve" | "update"
        self.op = op
        self.traced = traced
        self.deadline = deadline
        self.admit_ns = 0
        self.done = threading.Event()
        self.status = "pending"  # -> "ok" | "deadline" | "error"
        self.epoch: Optional[int] = None
        self.digest: Optional[str] = None

    def finish(
        self, status: str, epoch: Optional[int] = None, digest: Optional[str] = None
    ) -> None:
        self.status = status
        self.epoch = epoch
        self.digest = digest
        self.done.set()


class SnapshotServer:
    """Thread-pool MVCC server over one base snapshot.

    ``start()`` spawns ``readers`` reader threads plus one writer;
    ``stop()`` drains the queue, publishes the final batch, joins every
    thread (with a deadlock-detecting timeout) and merges the per-thread
    metrics registries into :attr:`metrics`.
    """

    #: Bound on writer publish attempts per batch (injected crashes are
    #: finite by construction; a real bug should surface, not loop).
    MAX_PUBLISH_ATTEMPTS = 8

    def __init__(
        self,
        base_snapshot: Any,
        strategy: str = "BFS",
        readers: int = 4,
        queue_depth: int = 64,
        publish_interval: float = 0.05,
    ) -> None:
        self.chain = VersionChain(base_snapshot)
        self.queue = AdmissionQueue(queue_depth)
        self.strategy_name = strategy
        self.num_readers = readers
        self.publish_interval = publish_interval
        self.metrics = MetricsRegistry()
        # Consistency evidence for the oracle.  Appends are GIL-atomic;
        # readers are the only writers of acked_retrieves, the writer
        # thread the only writer of epoch_log / acked_updates.
        self.epoch_log: List[Tuple[int, List[Any]]] = []
        self.acked_retrieves: List[Tuple[int, Any, str]] = []
        self.acked_updates: List[Tuple[int, int]] = []
        self._pending: List[ServeRequest] = []
        self._writer_wake = threading.Condition(threading.Lock())
        self._stopping = False
        self._writer_stop = False
        self._readers: List[threading.Thread] = []
        self._writer: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        self._registries: List[MetricsRegistry] = []
        self._base = base_snapshot

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for index in range(self.num_readers):
            thread = threading.Thread(
                target=self._reader_loop, name="serve-reader-%d" % index, daemon=True
            )
            thread.start()
            self._readers.append(thread)
        self._writer = threading.Thread(
            target=self._writer_loop, name="serve-writer", daemon=True
        )
        self._writer.start()
        self._threads = self._readers + [self._writer]

    def stop(self, join_timeout: float = 30.0) -> List[str]:
        """Drain, publish the final batch, join all threads.

        Readers are joined *before* the writer is told to stop, so every
        update a reader dequeued is handed over and flushed in the final
        publish.  Returns the names of threads still alive after
        ``join_timeout`` — non-empty means a deadlock/hang (callers
        treat it as failure).
        """
        self._stopping = True
        self.queue.close()
        stuck = []
        for thread in self._readers:
            thread.join(join_timeout)
            if thread.is_alive():
                stuck.append(thread.name)
        with self._writer_wake:
            self._writer_stop = True
            self._writer_wake.notify_all()
        if self._writer is not None:
            self._writer.join(join_timeout)
            if self._writer.is_alive():
                stuck.append(self._writer.name)
        for registry in self._registries:
            self.metrics.merge(registry)
        self._registries = []
        return stuck

    def submit(self, request: ServeRequest) -> None:
        """Admit ``request`` (raises :class:`~repro.errors.Overloaded`)."""
        request.admit_ns = time.monotonic_ns()
        self.queue.admit(request)

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    def _reader_loop(self) -> None:
        registry = MetricsRegistry()
        self._registries.append(registry)
        strategy = make_strategy(self.strategy_name)
        lease: Optional[VersionLease] = None
        clone: Any = None
        try:
            while True:
                _fault.hit("serve.queue_stall")
                request = self.queue.next(timeout=0.05)
                if request is None:
                    if self._stopping:
                        break
                    continue
                if request.deadline is not None and request.deadline.expired():
                    request.finish("deadline")
                    registry.inc("serve.cancelled", kind=request.kind)
                    continue
                if request.kind == "update":
                    with self._writer_wake:
                        self._pending.append(request)
                        self._writer_wake.notify()
                    continue
                _fault.hit("serve.reader_hang")
                if lease is None or lease.version.epoch != self.chain.head_epoch():
                    if lease is not None:
                        lease.release()
                    lease = self.chain.acquire()
                    clone = self._attach(lease, registry, "reader")
                t0 = time.monotonic_ns()
                try:
                    if request.deadline is not None:
                        with enforced(request.deadline):
                            values = strategy.retrieve(clone, request.op)
                    else:
                        values = strategy.retrieve(clone, request.op)
                except DeadlineExceeded:
                    request.finish("deadline")
                    registry.inc("serve.cancelled", kind="retrieve")
                    continue
                registry.observe(
                    "serve.service_ms", (time.monotonic_ns() - t0) / 1e6,
                    kind="retrieve",
                )
                epoch = lease.version.epoch
                digest = result_digest(values)
                self.acked_retrieves.append((epoch, request.op, digest))
                request.finish("ok", epoch=epoch, digest=digest)
                registry.inc("serve.ops", kind="retrieve", status="ok")
        finally:
            if lease is not None:
                lease.release()

    @staticmethod
    def _attach(lease: VersionLease, registry: MetricsRegistry, role: str) -> Any:
        """Clone the leased version, timing it as ``serve.attach_ms``."""
        t0 = time.monotonic_ns()
        clone = lease.attach()
        registry.observe(
            "serve.attach_ms", (time.monotonic_ns() - t0) / 1e6, role=role
        )
        return clone

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        registry = MetricsRegistry()
        self._registries.append(registry)
        strategy = make_strategy(self.strategy_name)
        while True:
            with self._writer_wake:
                if not self._pending and not self._writer_stop:
                    self._writer_wake.wait(self.publish_interval)
                batch = self._pending
                self._pending = []
                stopping = self._writer_stop
            if batch:
                self._publish_batch(batch, strategy, registry)
            elif stopping:
                # _writer_stop is set only after every reader has been
                # joined, so an empty pending list here is final.
                break

    def _publish_batch(
        self,
        batch: List[ServeRequest],
        strategy: Any,
        registry: MetricsRegistry,
    ) -> None:
        live = []
        for request in batch:
            if request.deadline is not None and request.deadline.expired():
                request.finish("deadline")
                registry.inc("serve.cancelled", kind="update")
            else:
                live.append(request)
        if not live:
            return
        oldest_ns = min(request.admit_ns for request in live)
        for attempt in range(self.MAX_PUBLISH_ATTEMPTS):
            lease = self.chain.acquire()
            try:
                clone = self._attach(lease, registry, "writer")
                for request in live:
                    strategy.update(clone, request.op)
                _fault.hit("serve.publish_crash")
                snapshot = Snapshot.freeze(clone)
            except FaultInjected:
                # Mid-publish crash: the half-built version dies with its
                # private clone; nothing was acknowledged, so the retry
                # rebuilds the identical batch from scratch.
                registry.inc("serve.publish.crashes")
                continue
            finally:
                lease.release()
            version = self.chain.publish(snapshot)
            self.epoch_log.append((version.epoch, [r.op for r in live]))
            lag_ms = (time.monotonic_ns() - oldest_ns) / 1e6
            registry.observe("serve.publish_lag_ms", lag_ms)
            registry.observe("serve.batch_size", len(live))
            for request in live:
                self.acked_updates.append((version.epoch, request.seq))
                request.finish("ok", epoch=version.epoch)
                registry.inc("serve.ops", kind="update", status="ok")
            return
        # Retries exhausted (should be unreachable outside pathological
        # fault schedules): fail the batch without acknowledging it.
        registry.inc("serve.publish.failures")
        for request in live:
            request.finish("error")
            registry.inc("serve.ops", kind="update", status="error")

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        return {
            "chain": self.chain.counters(),
            "admission": self.queue.stats(),
            "epochs_published": len(self.epoch_log),
            "acked_retrieves": len(self.acked_retrieves),
            "acked_updates": len(self.acked_updates),
        }


def replay_oracle(
    base_snapshot: Any,
    strategy_name: str,
    epoch_log: List[Tuple[int, List[Any]]],
    acked_retrieves: List[Tuple[int, Any, str]],
    acked_updates: Optional[List[Tuple[int, int]]] = None,
) -> List[Dict[str, Any]]:
    """Serially replay the published history; return digest mismatches.

    Attaches a fresh clone of the *base* snapshot, applies the published
    batches in epoch order, and re-executes every acknowledged retrieve
    at the epoch it was served at.  An empty return proves each client
    observed a consistent snapshot: no torn batch, no lost acknowledged
    update, no cross-epoch smear.
    """
    strategy = make_strategy(strategy_name)
    db = base_snapshot.attach()
    by_epoch: Dict[int, List[Tuple[Any, str]]] = {}
    for epoch, op, digest in acked_retrieves:
        by_epoch.setdefault(epoch, []).append((op, digest))
    mismatches: List[Dict[str, Any]] = []

    def check(epoch: int) -> None:
        for op, digest in by_epoch.pop(epoch, []):
            actual = result_digest(strategy.retrieve(db, op))
            if actual != digest:
                mismatches.append(
                    {"epoch": epoch, "served": digest, "oracle": actual}
                )

    check(0)
    published = set()
    for epoch, ops in sorted(epoch_log, key=lambda entry: entry[0]):
        published.add(epoch)
        for op in ops:
            strategy.update(db, op)
        check(epoch)
    # Any leftover epoch means a retrieve was served at a version that
    # was never published — a consistency hole, not a digest mismatch.
    for epoch in sorted(by_epoch):
        mismatches.append({"epoch": epoch, "served": "?", "oracle": "unpublished"})
    # Every acknowledged update must belong to exactly one published
    # batch (the writer acks only after chain.publish returns).
    if acked_updates:
        for epoch, seq in acked_updates:
            if epoch not in published:
                mismatches.append(
                    {"epoch": epoch, "served": "update seq %d" % seq,
                     "oracle": "unpublished"}
                )
    return mismatches
