"""Copy-on-write database snapshots.

Building the experimental database is the dominant cost of a cold sweep:
every (shape, strategy) cell that misses the in-process database cache
pays a full seeded rebuild of ParentRel/ChildRel/ClusterRel before a
single query is measured.  The build is fully deterministic, so — like
the OCB benchmark's reusable object bases — a built database is an
artifact worth keeping.

This module provides the two pieces that make reuse cheap and safe:

* :class:`Snapshot` — a built database frozen into an immutable
  template: dirty frames flushed, counters zeroed, every page sealed
  (:meth:`repro.storage.page.Page.freeze`).  :meth:`Snapshot.attach`
  returns a fully mutable clone by a structural ``copy.deepcopy`` of
  the template whose cost depends on the number of files, not pages:
  the disk's per-file page lists are duplicated by
  :meth:`repro.storage.disk.DiskManager.clone` (``list(pages)``, frozen
  pages shared), B-tree node headers are flat columns copied at C
  speed, and immutable values (schemas, codecs, the unit directory)
  answer ``__deepcopy__`` with themselves.  Everything else — catalog,
  buffer pool, caches, any field added later — is walked generically,
  so it is private to the clone by default.  This is the one clone
  path: arena-backed snapshots unpickle their metadata once per process
  into such a template and attach through it as well.  Clone pages stay
  frozen until first write: the buffer pool's write path copies a page
  the first time a clone dirties it
  (:meth:`repro.storage.buffer.BufferPool.writable`), so clones never
  observe each other's updates and the template is never modified.

* :class:`SnapshotStore` — a persistent, process-shared store of frozen
  databases (one file per shape under ``results/.dbcache/``).  It is
  persistence only: it keeps nothing resident, so what stays mapped is
  decided by whoever holds the handles it returns (the sweep's bounded
  :class:`~repro.experiments.runner.DatabaseCache`).  Pool workers and
  repeated report runs attach in milliseconds instead of rebuilding.
  Filenames embed the source fingerprint, so any code change orphans
  every stored snapshot at once.  The on-disk format is the flat
  mmap-backed **arena** (:mod:`repro.storage.arena`, ``*.arena``):
  loading one maps the file read-only and shares its page images across
  every attach made while it stays loaded, with zero pickling of page
  payloads.  Its :func:`write_atomic` and :func:`quarantine` also serve
  the sweep's point cache (:class:`repro.experiments.pool.PointCache`).

Copy-on-write never changes measured costs: a real engine modifies the
already-buffered frame in place, so the private copy is free — page
sharing exists only because the simulator's "disk" holds live objects.
"""

from __future__ import annotations

import copy
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CacheCorrupt
from repro.fault import plan as _fault
from repro.obs import spans as _spans
from repro.storage import arena as _arena
from repro.storage.arena import ArenaSnapshot


def write_atomic(path: str, data: bytes) -> None:
    """Durably replace ``path`` with ``data``.

    The bytes go to a temporary file beside ``path``, are fsynced and
    renamed into place (atomic on POSIX), so a crash — even SIGKILL —
    leaves the old file or the new one, never a torn one.  The
    temporary file is removed on any failure.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def quarantine(path: str) -> None:
    """Move a corrupt file aside (``*.corrupt``, kept as evidence) so
    reloads miss it; delete it if the rename fails."""
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass


class Snapshot:
    """An immutable template of a built database.

    Create one per database shape with :meth:`freeze`; get a runnable
    clone per sweep point with :meth:`attach`.  The wrapped database
    object becomes the template and must not be run directly afterwards
    (its pages refuse mutation).
    """

    def __init__(self, db: Any) -> None:
        self._db = db

    @classmethod
    def freeze(cls, db: Any) -> "Snapshot":
        """Seal ``db``: flush dirty frames, zero counters, freeze pages."""
        with _spans.span("snapshot.freeze"):
            db.start_measurement(cold=True)
            disk = db.disk
            # A tracer hooked into this build must not leak into templates
            # (closures are neither picklable nor meaningful across clones).
            disk.io_hook = None
            disk.freeze()
        return cls(db)

    def attach(self) -> Any:
        """A fresh, fully mutable database clone sharing frozen pages.

        ``copy.deepcopy`` walks the template with the disk already
        resolved to :meth:`DiskManager.clone` — the only structure that
        holds one entry per page — so the walk is O(#files) and never
        visits a page.  Page sharing also shares each page's lazily
        *decoded* record list across all clones: the first clone to
        touch a page pays the byte decode, every later clone reads the
        records for free.
        """
        with _spans.span("snapshot.attach"):
            disk = self._db.disk
            return copy.deepcopy(self._db, {id(disk): disk.clone()})


class SnapshotStore:
    """Persistent store of database snapshots, shared across processes.

    Keys are arbitrary strings (the sweep layer uses a hash of the
    database shape); each key maps to one arena file under ``root``.
    The store keeps no handle of its own: it loads through the
    process-wide :class:`~repro.storage.arena.ArenaRegistry`, which
    holds states weakly, so a loaded arena stays mapped exactly as long
    as a caller holds its handle — in a sweep, the bounded
    :class:`~repro.experiments.runner.DatabaseCache`.  A shape every
    holder has dropped is re-parsed from its file on the next :meth:`get`.

    Concurrency: writes go through :func:`write_atomic`, and builds are
    deterministic, so workers racing on one key write identical bytes —
    last writer wins harmlessly and readers never see a torn file.

    Crash safety: an arena carries a SHA-256 over each structural
    region (header-declared index, shared-objects and metadata blobs)
    plus its exact size, all verified on load.  A truncated, torn or
    bit-flipped file fails verification, is quarantined
    (:func:`quarantine`) and counts as a miss — the caller rebuilds
    deterministically and overwrites it.
    """

    FILE_PREFIX = "db-"

    def __init__(self, root: str, fingerprint: Optional[str] = None) -> None:
        if fingerprint is None:
            from repro.util.fingerprint import code_fingerprint

            fingerprint = code_fingerprint()
        self.root = root
        self.fingerprint = fingerprint
        self.stats: Dict[str, int] = {
            "disk_hits": 0,
            "misses": 0,
            "puts": 0,
            "corrupt": 0,
        }

    def _arena_path(self, key: str) -> str:
        return os.path.join(
            self.root, "%s%s-%s.arena" % (self.FILE_PREFIX, self.fingerprint[:12], key)
        )

    def get(self, key: str) -> Optional[Any]:
        """The snapshot stored under ``key``, or None.

        A stored file that fails checksum verification — torn write,
        bit rot, or an injected ``snapshot.load`` fault — is quarantined
        and reported as a miss; corruption is never an error here.
        Hits return an :class:`~repro.storage.arena.ArenaSnapshot`
        backed by the process-wide registry (one mmap + stub build for
        as long as any holder keeps the handle).
        """
        path = self._arena_path(key)
        try:
            snapshot = ArenaSnapshot(_arena.registry().load(path))
        except (CacheCorrupt, OSError, ValueError) as exc:
            if not isinstance(exc, FileNotFoundError):
                # Structural damage (or an injected snapshot.load
                # fault): quarantine — the caller rebuilds
                # deterministically and overwrites the arena.
                _arena.registry().discard(path)
                self.stats["corrupt"] += 1
                quarantine(path)
            self.stats["misses"] += 1
            return None
        self.stats["disk_hits"] += 1
        return snapshot

    def put(self, key: str, snapshot: Snapshot) -> Any:
        """Persist ``snapshot`` under ``key``; return the handle to attach.

        That handle is the :class:`~repro.storage.arena.ArenaSnapshot`
        of the arena just written — the object a cold process would
        load, so cold and warm attaches clone the same stub-backed
        template — or ``snapshot`` itself if re-loading the file fails
        (the next :meth:`get` re-verifies it).  May raise
        :class:`~repro.errors.FaultInjected` (``snapshot.save`` site) or
        ``OSError``; callers degrade to store-less operation.
        """
        _fault.hit("snapshot.save")
        path = self._arena_path(key)
        write_atomic(path, _arena.build_arena(snapshot._db))
        self.stats["puts"] += 1
        # A mapping of the file this put replaced must not answer for
        # the new bytes.
        _arena.registry().discard(path)
        try:
            return ArenaSnapshot(_arena.registry().load(path))
        except (CacheCorrupt, OSError, ValueError):
            return snapshot

    # ------------------------------------------------------------------
    # maintenance / introspection (the ``repro dbcache`` subcommand)
    # ------------------------------------------------------------------
    def entries(self) -> List[Tuple[str, int, float]]:
        """``(filename, bytes, mtime)`` for every stored snapshot file.

        Lists *all* fingerprints, not just the current one — anything
        carrying the store's ``db-`` prefix — so stale files are visible
        (and countable) before a ``clear``.
        """
        out: List[Tuple[str, int, float]] = []
        try:
            names = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return out
        for name in names:
            if not name.startswith(self.FILE_PREFIX) or name.endswith(".corrupt"):
                continue  # quarantined files are evidence, not snapshots
            path = os.path.join(self.root, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            out.append((name, info.st_size, info.st_mtime))
        return out

    def bytes_on_disk(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def clear(self) -> int:
        """Delete every stored (and quarantined) file."""
        removed = 0
        try:
            names = sorted(os.listdir(self.root))
        except FileNotFoundError:
            names = []
        for name in names:
            if not (name.startswith(self.FILE_PREFIX) or name.endswith(".corrupt")):
                continue
            path = os.path.join(self.root, name)
            _arena.registry().discard(path)
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed
