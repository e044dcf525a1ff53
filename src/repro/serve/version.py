"""The MVCC version chain: epoch-tagged immutable snapshots.

The serving layer never lets a reader and the writer touch the same
database object.  Readers attach clones of the currently *published*
:class:`~repro.storage.snapshot.Snapshot`; the single writer builds the
next version on a private clone and swaps the head pointer atomically.
Because snapshots are frozen and clones copy pages only on write
(PR 3's copy-on-write machinery), consecutive versions share every
unmodified page — publishing epoch N+1 costs one clone + the pages the
batch dirtied, not a database copy.

Retirement is reader-driven: each version carries a reader refcount
(taken via :class:`VersionLease`), and a superseded version is dropped
from the live set only when its last reader detaches.  A slow reader
therefore pins *its* snapshot — whose pages are immutable and cannot be
yanked out from under it — without ever blocking a publish, and version
growth under churn is bounded by the number of concurrently pinned
epochs, not by publish rate.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional


class Version:
    """One published epoch: an immutable snapshot plus a reader count."""

    __slots__ = ("epoch", "snapshot", "readers", "published_ns")

    def __init__(self, epoch: int, snapshot: Any, published_ns: int) -> None:
        self.epoch = epoch
        self.snapshot = snapshot
        self.readers = 0
        self.published_ns = published_ns

    def __repr__(self) -> str:
        return "Version(epoch=%d, readers=%d)" % (self.epoch, self.readers)


class VersionLease:
    """A reader's pin on one version (context manager).

    While held, the version — and therefore every page its snapshot
    references — stays live regardless of how many newer epochs are
    published.  Release exactly once; :meth:`release` is idempotent.
    """

    __slots__ = ("_chain", "version", "_released")

    def __init__(self, chain: "VersionChain", version: Version) -> None:
        self._chain = chain
        self.version = version
        self._released = False

    def attach(self) -> Any:
        """A fresh mutable clone of the leased version's snapshot."""
        return self.version.snapshot.attach()

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._chain.release(self.version)

    def __enter__(self) -> "VersionLease":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class VersionChain:
    """Atomic publish/acquire over a chain of epoch-tagged versions.

    All state transitions happen under one lock, but the lock is held
    only for pointer work (acquire, release, head swap) — never while
    attaching a clone or building a version — so readers and the writer
    serialize on nanoseconds, not on snapshot work.
    """

    def __init__(self, base_snapshot: Any) -> None:
        self._lock = threading.Lock()
        self._head = Version(0, base_snapshot, time.monotonic_ns())
        self._live: Dict[int, Version] = {0: self._head}
        self.published = 0
        self.retired = 0
        self.max_live = 1

    def head_epoch(self) -> int:
        return self._head.epoch

    def acquire(self) -> VersionLease:
        """Pin and lease the currently published head version."""
        with self._lock:
            head = self._head
            head.readers += 1
            return VersionLease(self, head)

    def release(self, version: Version) -> None:
        """Drop one reader pin; retire a superseded version left with none."""
        with self._lock:
            version.readers -= 1
            if version.readers == 0 and version is not self._head:
                self._retire_locked(version)

    def publish(self, snapshot: Any) -> Version:
        """Atomically make ``snapshot`` the head (epoch + 1).

        The superseded head is retired immediately if no reader pins it;
        otherwise it stays live until its last lease is released.
        """
        with self._lock:
            old = self._head
            version = Version(old.epoch + 1, snapshot, time.monotonic_ns())
            self._live[version.epoch] = version
            self._head = version
            self.published += 1
            if old.readers == 0:
                self._retire_locked(old)
            if len(self._live) > self.max_live:
                self.max_live = len(self._live)
            return version

    def _retire_locked(self, version: Version) -> None:
        if self._live.pop(version.epoch, None) is not None:
            self.retired += 1

    def live_count(self) -> int:
        with self._lock:
            return len(self._live)

    def live_version(self, epoch: int) -> Optional[Version]:
        """The live version for ``epoch``, if not yet retired (tests)."""
        with self._lock:
            return self._live.get(epoch)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "published": self.published,
                "retired": self.retired,
                "live": len(self._live),
                "max_live": self.max_live,
                "head_epoch": self._head.epoch,
            }
