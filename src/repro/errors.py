"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class StorageError(ReproError):
    """Base class for storage-engine failures."""


class PageFullError(StorageError):
    """A record did not fit on the target page."""


class PageNotFoundError(StorageError):
    """A page id referred to a page that does not exist on disk."""


class FileNotFoundError_(StorageError):
    """A file id referred to a file that was never created or was dropped."""


class FrozenPageError(StorageError):
    """A frozen (snapshot-shared) page was mutated without copy-on-write.

    Mutation paths must acquire the page through
    :meth:`repro.storage.buffer.BufferPool.writable` so the page is
    privately copied before the snapshot-shared original is touched.
    """


class RecordError(StorageError):
    """A record did not match its schema (arity, type, or width)."""


class DuplicateKeyError(StorageError):
    """An insert would violate a unique-key constraint."""


class KeyNotFoundError(StorageError):
    """A keyed lookup or update referenced a key that is not present."""


class CatalogError(ReproError):
    """Relation-catalog misuse (duplicate names, missing relations...)."""


class QueryError(ReproError):
    """Malformed query or an unsupported execution request."""


class RepresentationError(ReproError):
    """Invalid point in the representation matrix (Figure 1 of the paper)."""


class WorkloadError(ReproError):
    """Invalid workload parameters (e.g. inconsistent sharing factors)."""


class FaultInjected(ReproError):
    """An error injected by the fault plan (:mod:`repro.fault`).

    Recovery code treats these exactly like the real failure they stand
    in for; the ``site`` attribute records which unreliable boundary
    fired (``disk.read``, ``snapshot.load``, ...).
    """

    def __init__(self, site: str, detail: str = "") -> None:
        message = "injected fault at %s" % site
        if detail:
            message += " (%s)" % detail
        super().__init__(message)
        self.site = site


class CacheCorrupt(ReproError):
    """A persistent cache entry failed its checksum or was truncated.

    Raised internally by the snapshot store and the point cache; both
    quarantine the entry and treat it as a miss, so this never escapes
    to callers.
    """


class WorkerLost(ReproError):
    """A sweep worker crashed, hung past its deadline, or its pool broke."""


class DeadlineExceeded(ReproError):
    """A cooperative monotonic deadline expired.

    Raised by :meth:`repro.util.deadline.Deadline.check` (and the
    driver's per-operation check) when the enclosing operation outlived
    its budget, on whatever thread runs it.  The sweep engine translates
    it into :class:`WorkerLost`, so a point timeout is charged exactly
    like a pool worker the parent's watchdog gave up on.
    """


class Overloaded(ReproError):
    """The serving layer fast-rejected a request (admission control).

    ``reason`` says why: ``"queue_full"`` (the bounded admission queue
    hit its depth limit), ``"shed_updates"`` / ``"shed_traced"`` (a
    degradation tier is shedding that request class), or ``"deadline"``
    (the request's deadline had already expired at admission).  Clients
    treat this as retryable with backoff; nothing was executed.
    """

    def __init__(self, reason: str, depth: int = 0, tier: str = "nominal") -> None:
        super().__init__(
            "server overloaded: %s (queue depth %d, tier %s)"
            % (reason, depth, tier)
        )
        self.reason = reason
        self.depth = depth
        self.tier = tier


class PointFailed(ReproError):
    """A sweep point could not be measured (bad spec or retries exhausted).

    ``point`` is the failing :class:`~repro.experiments.pool.SweepPoint`,
    ``attempts`` how many executions were tried (0 for spec errors, which
    no retry can fix), and ``cause`` the final underlying exception.
    """

    def __init__(
        self,
        message: str,
        point: object = None,
        attempts: int = 0,
        cause: "BaseException | None" = None,
    ) -> None:
        super().__init__(message)
        self.point = point
        self.attempts = attempts
        self.cause = cause


class SweepInterrupted(ReproError):
    """A sweep was interrupted (Ctrl-C) after checkpointing its progress.

    Completed points are already flushed to the point cache, so rerunning
    the same command resumes from the last completed point.
    """

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(
            "sweep interrupted after %d/%d points" % (completed, total)
        )
        self.completed = completed
        self.total = total
