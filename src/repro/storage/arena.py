"""Flat mmap-backed snapshot arenas.

A stored database is read far more often than it is written: every pool
worker and every sweep point attaches to it.  At paper scale the page
payload bytes dominate its size, and frozen pages are immutable, so
every worker on the machine can share one copy and no attach needs to
deserialize a page.

An **arena** is that one copy.  ``build_arena`` lays a frozen database
out as a single contiguous file::

    [magic][u32 header_len][header JSON]
    [page index]      pages * 36-byte packed entries
    [page images]     raw slotted byte images, back to back
    [shared blob]     pickle of the immutables every clone shares
                      (record codecs, stateless schemas, units)
    [metadata blob]   pickle of the database, pages + shared immutables
                      externalized

Attaching maps the file read-only (``mmap``) and rebuilds each indexed
page as a *stub*: a frozen :class:`~repro.storage.page.Page` whose byte
image is a ``memoryview`` into the mapping — no pickle of page payloads,
no copy until the page is either lazily decoded on first read or
privately duplicated by the copy-on-write path.  Codec-less pages (blob
caches, hash/ISAM index pages) are externalized the same way, except
their image is a pickle of the decoded record lists, revived lazily on
first read.  The metadata blob is a normal pickle except that every
frozen page was replaced by a persistent id (its index position), so
unpickling it wires the file lists straight to the shared stubs and
carries only catalog structure.

Loading an arena means one mmap, one stub list, one shared-objects
unpickle and one metadata unpickle into a frozen *template* database.
Every attach then clones that template through
:meth:`repro.storage.snapshot.Snapshot.attach` — the same structural
clone a freshly frozen database takes, O(#files) — so the stubs (and
therefore each page's lazily decoded record cache) and the shared
immutables are reused by all clones of that load.  The per-process
:class:`ArenaRegistry` only removes duplicates: while anyone holds a
loaded arena, a second load of the same file returns it.  What stays
resident is decided by the holders — the snapshot store's memory tier
and the sweep's bounded database cache — never by the registry.

Integrity: the header, index, shared and metadata regions are SHA-256
checksummed and the total file size is validated, so truncation or a
bit flip anywhere that could mis-structure a clone is detected and the
file is quarantined (the caller rebuilds deterministically).  The raw
page images are deliberately *not* checksummed — hashing them on every
load would re-read the bytes the mmap exists to avoid; they are exactly
as trustworthy as any database file a real engine maps.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import pickle
import struct
import threading
import weakref
from typing import Any, Dict, List, Optional

from repro.errors import CacheCorrupt
from repro.fault import plan as _fault
from repro.obs import spans as _spans
from repro.storage.page import Page, PageId
from repro.storage.record import RecordCodec, Schema


def _shareable(obj: Any) -> bool:
    """Whether ``obj`` is immutable and safe to share across attaches.

    Mirrors the deep-copy sharing rules exactly: record codecs and
    stateless schemas (``Schema.__deepcopy__`` returns ``self`` for
    them) plus any type that opts in with an ``ARENA_SHAREABLE`` class
    attribute (frozen value objects like the workload's ``Unit``).
    Blob schemas stay inline in the metadata pickle — a BlobField's
    size_fn may be bound to per-database state every clone must own.
    """
    kind = type(obj)
    if kind is RecordCodec:
        return True
    if kind is Schema:
        return obj.stateless
    return getattr(kind, "ARENA_SHAREABLE", False) is True

MAGIC = b"RARENA1\n"

_U32 = struct.Struct("<I")

#: One page-index entry: file_id, page_no, capacity, used_bytes,
#: version, codec_id, image offset (within the images region), length.
_ENTRY = struct.Struct("<iiIIIiQI")


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
class _ArenaPickler(pickle.Pickler):
    """Pickles a database, externalizing pages and shared immutables.

    Pages registered in ``arena_pages`` (frozen) are emitted as integer
    persistent ids — their index position — instead of being serialized,
    so the metadata blob carries zero page payload bytes and every
    reference to a given page (file list, buffer frame) resolves to one
    shared stub on load.  Immutable objects every clone may share
    (:func:`_shareable`) are interned into the ``shared`` list as they
    are encountered and emitted as ``("s", position)`` ids; the list is
    pickled once after the dump, so attaches skip reconstructing them.
    """

    def __init__(
        self, file: Any, arena_pages: Dict[int, int], shared: List[Any]
    ) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._arena_pages = arena_pages
        self._shared = shared
        self._shared_ids = {id(obj): i for i, obj in enumerate(shared)}

    def intern(self, obj: Any) -> int:
        index = self._shared_ids.get(id(obj))
        if index is None:
            index = self._shared_ids[id(obj)] = len(self._shared)
            self._shared.append(obj)
        return index

    def persistent_id(self, obj: Any) -> Optional[Any]:
        if type(obj) is Page:
            return self._arena_pages.get(id(obj))
        if _shareable(obj):
            return ("s", self.intern(obj))
        return None


def build_arena(db: Any) -> bytes:
    """The complete arena blob for a frozen database.

    Every frozen page lands in the index + images regions.  Pages with a
    codec contribute their raw slotted byte image; codec-less pages
    (blob caches, hash/ISAM index pages — their payloads are arbitrary
    Python objects) contribute a pickle of their decoded lists and carry
    ``codec_id == -1``.  Either way the metadata blob shrinks to pure
    catalog structure, so an attach unpickles no page payloads at all.
    """
    disk = db.disk
    shared: List[Any] = []
    entries: List[bytes] = []
    images: List[bytes] = []
    arena_pages: Dict[int, int] = {}
    buffer = io.BytesIO()
    pickler = _ArenaPickler(buffer, arena_pages, shared)
    pack_entry = _ENTRY.pack
    offset = 0
    for file_id in sorted(disk._files):
        for page in disk._files[file_id]:
            codec = page.codec
            if not page.frozen:
                continue
            if codec is None:
                codec_id = -1
                page.record_batch()  # revive a byte-form stub before reading
                image = pickle.dumps(
                    (page.records, page._sizes), protocol=pickle.HIGHEST_PROTOCOL
                )
            else:
                codec_id = pickler.intern(codec)
                image = bytes(page.to_bytes())
            entries.append(
                pack_entry(
                    page.page_id.file_id,
                    page.page_id.page_no,
                    page.capacity,
                    page.used_bytes,
                    page.version,
                    codec_id,
                    offset,
                    len(image),
                )
            )
            arena_pages[id(page)] = len(entries) - 1
            images.append(image)
            offset += len(image)
    pickler.dump(db)
    meta_blob = buffer.getvalue()
    index_blob = b"".join(entries)
    images_blob = b"".join(images)
    # Pickled after the metadata dump: dumping discovers and interns the
    # shared immutables (schemas, units) referenced from the metadata.
    # One stream preserves identity between entries that reference each
    # other, exactly as the clone graph expects.
    shared_blob = pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "pages": len(entries),
            "index_len": len(index_blob),
            "images_len": len(images_blob),
            "shared_len": len(shared_blob),
            "meta_len": len(meta_blob),
            "index_sha": hashlib.sha256(index_blob).hexdigest(),
            "shared_sha": hashlib.sha256(shared_blob).hexdigest(),
            "meta_sha": hashlib.sha256(meta_blob).hexdigest(),
        },
        sort_keys=True,
    ).encode("ascii")
    return b"".join(
        (
            MAGIC,
            _U32.pack(len(header)),
            header,
            index_blob,
            images_blob,
            shared_blob,
            meta_blob,
        )
    )


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
class _ArenaUnpickler(pickle.Unpickler):
    def __init__(self, file: Any, stubs: List[Page], shared: List[Any]) -> None:
        super().__init__(file)
        self._stubs = stubs
        self._shared = shared

    def persistent_load(self, pid: Any) -> Any:
        if pid.__class__ is int:
            return self._stubs[pid]
        return self._shared[pid[1]]


class ArenaState:
    """One loaded arena: the mmap, the shared page stubs, the template.

    Built once per arena file for as long as any holder keeps it (see
    :class:`ArenaRegistry`); :meth:`attach` then clones the template
    like any frozen database.  There is no explicit unmap: stub pages
    hold ``memoryview`` slices of the mapping, so the mapping lives
    exactly as long as the last state or clone that uses it.
    """

    __slots__ = ("path", "pages", "_mmap", "_stubs", "_template", "__weakref__")

    def __init__(
        self, path: str, mm: mmap.mmap, stubs: List[Page], template: Any
    ) -> None:
        # Imported here: the snapshot module imports this one.
        from repro.storage.snapshot import Snapshot

        self.path = path
        self.pages = len(stubs)
        self._mmap = mm
        self._stubs = stubs
        self._template = Snapshot(template)

    def attach(self) -> Any:
        """A fresh, fully mutable database clone sharing the stub pages."""
        return self._template.attach()


def _load_state(path: str) -> ArenaState:
    """Map, verify and index the arena at ``path``.

    Raises :class:`FileNotFoundError` if absent and
    :class:`~repro.errors.CacheCorrupt` for any structural damage —
    bad magic, unparsable header, region checksum mismatch, truncation,
    or an index entry pointing outside the images region.
    """
    with open(path, "rb") as handle:
        mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        return _parse(path, mm)
    except BaseException:
        try:
            mm.close()
        except BufferError:  # pragma: no cover - no views exist yet
            pass
        raise


def _parse(path: str, mm: mmap.mmap) -> ArenaState:
    size = len(mm)
    base = len(MAGIC) + _U32.size
    if size < base or bytes(mm[: len(MAGIC)]) != MAGIC:
        raise CacheCorrupt("missing or truncated arena magic")
    (header_len,) = _U32.unpack_from(mm, len(MAGIC))
    if size < base + header_len:
        raise CacheCorrupt("truncated arena header")
    # Locate the region boundaries, then route every *verified* byte —
    # everything except the raw page images — through the snapshot.load
    # fault site as one blob and re-validate from the result, so an
    # injected (or real) flip in any structural region is always caught.
    try:
        bounds = json.loads(bytes(mm[base:base + header_len]).decode("ascii"))
        index_off = base + header_len
        images_off = index_off + int(bounds["index_len"])
        shared_off = images_off + int(bounds["images_len"])
        meta_off = shared_off + int(bounds["shared_len"])
        meta_end = meta_off + int(bounds["meta_len"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CacheCorrupt("unparsable arena header: %s" % (exc,))
    if size != meta_end or not (base <= index_off <= images_off <= shared_off):
        raise CacheCorrupt("arena size %d does not match header" % size)
    blob = _fault.corrupt_bytes(
        "snapshot.load", bytes(mm[:images_off]) + bytes(mm[shared_off:])
    )
    try:
        header = json.loads(blob[base:base + header_len].decode("ascii"))
        pages = int(header["pages"])
        index_len = int(header["index_len"])
        shared_len = int(header["shared_len"])
        meta_len = int(header["meta_len"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CacheCorrupt("unparsable arena header: %s" % (exc,))
    if not blob.startswith(MAGIC):
        raise CacheCorrupt("corrupt arena magic")
    index_end = base + header_len + index_len
    shared_end = index_end + shared_len
    index_blob = blob[base + header_len:index_end]
    shared_blob = blob[index_end:shared_end]
    meta_blob = blob[shared_end:]
    if (
        len(index_blob) != index_len
        or len(shared_blob) != shared_len
        or len(meta_blob) != meta_len
        or pages * _ENTRY.size != index_len
    ):
        raise CacheCorrupt("arena regions truncated")
    for name, region in (
        ("index", index_blob),
        ("shared", shared_blob),
        ("meta", meta_blob),
    ):
        if hashlib.sha256(region).hexdigest() != header.get(name + "_sha"):
            raise CacheCorrupt("arena %s checksum mismatch" % name)
    try:
        shared = pickle.loads(shared_blob)
    except Exception as exc:
        raise CacheCorrupt("unpicklable arena shared objects: %s" % (exc,))
    images_len = shared_off - images_off
    view = memoryview(mm)
    stubs: List[Page] = []
    unpack_entry = _ENTRY.unpack_from
    for i in range(pages):
        (
            file_id,
            page_no,
            capacity,
            used_bytes,
            version,
            codec_id,
            offset,
            length,
        ) = unpack_entry(index_blob, i * _ENTRY.size)
        if offset + length > images_len or not -1 <= codec_id < len(shared):
            raise CacheCorrupt("arena index entry %d out of bounds" % i)
        page = Page.__new__(Page)
        page.page_id = PageId(file_id, page_no)
        page.capacity = capacity
        page.used_bytes = used_bytes
        page.free_bytes = capacity - used_bytes
        page.records = None
        page._sizes = None
        page.version = version
        page.frozen = True
        page.codec = shared[codec_id] if codec_id >= 0 else None
        page._buf = view[images_off + offset:images_off + offset + length]
        stubs.append(page)
    try:
        template = _ArenaUnpickler(io.BytesIO(meta_blob), stubs, shared).load()
    except Exception as exc:
        raise CacheCorrupt("unpicklable arena metadata: %s" % (exc,))
    return ArenaState(path, mm, stubs, template)


class ArenaRegistry:
    """Per-process index of the loaded arenas still in use, by file path.

    The registry holds its states *weakly*: it promises one mapping per
    file for as long as anyone uses it, and nothing more.  Residency is
    bounded by the holders — the snapshot store's memory LRU and the
    sweep's :class:`~repro.experiments.runner.DatabaseCache` — and a
    state they all dropped is unmapped by the garbage collector, so a
    later :meth:`load` reparses the file.

    A live state answers for the bytes that were at ``path`` when it
    was mapped (the mapping pins that inode), so whoever replaces the
    file must :meth:`discard` the path, as ``SnapshotStore.put`` does.
    Deterministic rebuilds writing byte-identical arenas only make
    another process's state a valid hit; correctness does not rest on
    it.  A failed load registers nothing — after quarantine + rebuild
    the next load reads the fresh file.

    Thread-safe: the serving layer's reader threads attach concurrently,
    so :meth:`load` holds the registry lock across the check *and* the
    map — two threads racing on the same path get one ``ArenaState``
    (one mmap), never a duplicate mapping.  Loads are rare (one per
    database shape entering the memory tier), so serializing them costs
    nothing on the hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._states: "weakref.WeakValueDictionary[str, ArenaState]" = (
            weakref.WeakValueDictionary()
        )

    def load(self, path: str) -> ArenaState:
        with self._lock:
            state = self._states.get(path)
            if state is None:
                with _spans.span("arena.load"):
                    state = _load_state(path)
                self._states[path] = state
            return state

    def discard(self, path: str) -> None:
        """Forget ``path``: the next :meth:`load` maps the file anew.

        Holders of the old state keep using it (and its mapping) until
        they drop it.
        """
        with self._lock:
            self._states.pop(path, None)

    def clear(self) -> None:
        with self._lock:
            self._states.clear()


_REGISTRY = ArenaRegistry()


def registry() -> ArenaRegistry:
    """The process-wide arena registry."""
    return _REGISTRY


class ArenaSnapshot:
    """Snapshot-compatible handle over a loaded arena.

    Drop-in for :class:`~repro.storage.snapshot.Snapshot` wherever only
    :meth:`attach` is needed (the database cache's per-point clone path).
    Holding the handle is what keeps the loaded arena resident.
    """

    __slots__ = ("_state",)

    #: Lets the database cache tell arena attaches from attaches of a
    #: template frozen in this process without importing this module.
    is_arena = True

    def __init__(self, state: ArenaState) -> None:
        self._state = state

    @property
    def pages(self) -> int:
        return self._state.pages

    def attach(self) -> Any:
        return self._state.attach()
