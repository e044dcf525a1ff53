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
  databases (one file per shape under ``results/.dbcache/``), fronted by
  a small in-memory LRU.  Pool workers and repeated report runs attach
  in milliseconds instead of rebuilding.  Filenames embed the source
  fingerprint, so any code change orphans every stored snapshot at once.
  The on-disk format is the flat mmap-backed **arena**
  (:mod:`repro.storage.arena`, ``*.arena``): loading one maps the file
  read-only and shares its page images across every attach made while
  it stays loaded, with zero pickling of page payloads.

Copy-on-write never changes measured costs: a real engine modifies the
already-buffered frame in place, so the private copy is free — page
sharing exists only because the simulator's "disk" holds live objects.
"""

from __future__ import annotations

import copy
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CacheCorrupt
from repro.fault import plan as _fault
from repro.obs import spans as _spans
from repro.storage import arena as _arena
from repro.storage.arena import ArenaSnapshot


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
    database shape); each key maps to one arena file under ``root``.  A
    bounded in-memory LRU of snapshot handles (``max_memory_entries``)
    fronts the files, and together with the sweep's
    :class:`~repro.experiments.runner.DatabaseCache` it is what keeps a
    loaded arena resident: the process-wide
    :class:`~repro.storage.arena.ArenaRegistry` holds states weakly and
    only merges concurrent loads of one file.  A shape every holder has
    evicted is re-parsed from its file on the next :meth:`get`.

    Concurrency: writes go to a temporary file renamed into place
    (atomic on POSIX), and builds are deterministic, so workers racing
    on one key write identical bytes — last writer wins harmlessly and
    readers never see a torn file.

    Crash safety: an arena carries a SHA-256 over each structural
    region (header-declared index, shared-objects and metadata blobs)
    plus its exact size, all verified on load.  A truncated, torn or
    bit-flipped file fails verification, is *quarantined* (renamed
    ``*.corrupt``, so the evidence survives for inspection) and counts
    as a miss — the caller rebuilds deterministically and overwrites it.
    """

    FILE_PREFIX = "db-"

    def __init__(
        self,
        root: str,
        max_memory_entries: int = 4,
        fingerprint: Optional[str] = None,
    ) -> None:
        if fingerprint is None:
            from repro.util.fingerprint import code_fingerprint

            fingerprint = code_fingerprint()
        self.root = root
        self.fingerprint = fingerprint
        self.max_memory_entries = max_memory_entries
        #: Memory tier holds Snapshot or ArenaSnapshot handles alike.
        #: Guarded by ``_memory_lock`` — the serving layer's threads hit
        #: the store concurrently and OrderedDict mutation is not atomic.
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._memory_lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "memory_hits": 0,
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
        """The snapshot for ``key``, or None (memory tier, then disk).

        A stored file that fails checksum verification — torn write,
        bit rot, or an injected ``snapshot.load`` fault — is quarantined
        and reported as a miss; corruption is never an error here.
        Disk hits return an :class:`~repro.storage.arena.ArenaSnapshot`
        backed by the process-wide registry (one mmap + stub build for
        as long as any holder keeps the handle).
        """
        with self._memory_lock:
            snapshot = self._memory.get(key)
            if snapshot is not None:
                self._memory.move_to_end(key)
                self.stats["memory_hits"] += 1
                return snapshot
        path = self._arena_path(key)
        try:
            snapshot = ArenaSnapshot(_arena.registry().load(path))
        except (CacheCorrupt, OSError, ValueError) as exc:
            if not isinstance(exc, FileNotFoundError):
                # Structural damage (or an injected snapshot.load
                # fault): quarantine — the caller rebuilds
                # deterministically and overwrites the arena.
                _arena.registry().discard(path)
                self._quarantine(path)
            self.stats["misses"] += 1
            return None
        self._remember(key, snapshot)
        self.stats["disk_hits"] += 1
        return snapshot

    def put(self, key: str, snapshot: Snapshot) -> None:
        """Persist ``snapshot`` under ``key`` (checksummed atomic replace).

        May raise :class:`~repro.errors.FaultInjected`
        (``snapshot.save`` site) or ``OSError``; callers degrade to
        store-less operation.
        """
        _fault.hit("snapshot.save")
        self._remember(key, snapshot)
        os.makedirs(self.root, exist_ok=True)
        blob = _arena.build_arena(snapshot._db)
        path = self._arena_path(key)
        fd, tmp_path = tempfile.mkstemp(dir=self.root, prefix=".tmp-db-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stats["puts"] += 1
        # Serve same-process re-attaches from the arena we just wrote,
        # not the builder's Snapshot: the memory tier then hands out the
        # exact object a cold process would load, so cold and warm
        # attaches clone the same stub-backed template.  A mapping of
        # the file this put replaced must not answer for the new bytes.
        _arena.registry().discard(path)
        try:
            state = _arena.registry().load(path)
        except Exception:
            pass  # keep the Snapshot; the next disk read re-verifies
        else:
            self._remember(key, ArenaSnapshot(state))

    def _quarantine(self, path: str) -> None:
        """Move a corrupt file aside (``*.corrupt``) so reloads miss it."""
        self.stats["corrupt"] += 1
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _remember(self, key: str, snapshot: Snapshot) -> None:
        with self._memory_lock:
            self._memory[key] = snapshot
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)

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
        with self._memory_lock:
            self._memory.clear()
        return removed
