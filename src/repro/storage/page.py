"""Page abstraction.

The simulator's unit of I/O is the page, as in INGRES.  A page holds whole
records and enforces a byte budget: the record layer computes each record's
on-page size (including blank compression of character fields, see
:mod:`repro.storage.record`) and :meth:`Page.insert` refuses records that
would overflow the page.

Records live in two forms:

* the **decoded form** — a list of Python tuples, the working
  representation every hot path operates on (the paper's yardstick is the
  *number* of page I/Os, which depends only on how many records fit per
  page, so query processing never needs bytes);
* the **slotted byte form** — a compact ``bytes`` image produced by the
  schema's precompiled :class:`~repro.storage.record.RecordCodec`
  (``struct``-based, offset slot table, variable-length payloads).  Frozen
  pages persist as this image — the snapshot arena
  (:mod:`repro.storage.arena`) writes it out raw and maps it back — and
  decode **lazily**: a page revived from a snapshot stays byte-only
  until something actually reads it.

Slotted bytes are the one byte form.  The one exception is principled:
pages of a schema without a codec (blob caches, hash/ISAM index pages —
their payloads are arbitrary Python objects) have no slotted image, so
the arena stores a pickle of their decoded lists as their image.  Nothing
pickles a page itself: the arena is the only way one persists.

``DEFAULT_PAGE_SIZE`` is 2048 bytes, the INGRES 5.0 data-page size used in
the paper's experiments; ``PAGE_HEADER_BYTES`` models the page header and
line table, leaving roughly 2000 usable bytes so that typical 200-byte
ParentRel tuples pack ~10 per page and 100-byte ChildRel tuples ~20 per
page, matching Section 4 of the paper.
"""

from __future__ import annotations

import pickle
from typing import Any, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import FrozenPageError, PageFullError

DEFAULT_PAGE_SIZE = 2048
PAGE_HEADER_BYTES = 40
#: Per-record slot overhead (line-table entry), in bytes.
SLOT_BYTES = 2


class PageId(NamedTuple):
    """Address of a page: which file it lives in and its position there."""

    file_id: int
    page_no: int

    def __str__(self) -> str:
        return "page(%d:%d)" % (self.file_id, self.page_no)

    def __deepcopy__(self, memo: dict) -> "PageId":
        # Immutable pair of ints; snapshot attach deep-copies thousands
        # of these per clone, so skip the per-element descent.
        return self


class Page:
    """A fixed-capacity container of records.

    The page tracks ``used_bytes`` (and its O(1) complement
    ``free_bytes``) so access methods can make the same fit/overflow
    decisions a byte-oriented storage engine would.  Slots are stable
    only until a delete; access methods that need stable record addresses
    (the B-tree, which is static after bulk load) never delete.
    """

    __slots__ = (
        "page_id",
        "capacity",
        "used_bytes",
        "free_bytes",
        "records",
        "_sizes",
        "frozen",
        "codec",
        "_buf",
    )

    def __init__(self, page_id: PageId, capacity: int = DEFAULT_PAGE_SIZE) -> None:
        if capacity <= PAGE_HEADER_BYTES:
            raise ValueError("page capacity %d smaller than header" % capacity)
        self.page_id = page_id
        self.capacity = capacity
        self.used_bytes = PAGE_HEADER_BYTES
        #: Maintained incrementally on every mutation so the per-insert
        #: fit check is a single integer compare, never a re-derivation.
        self.free_bytes = capacity - PAGE_HEADER_BYTES
        self.records: Optional[List[Any]] = []
        self._sizes: Optional[List[int]] = []
        #: Sealed by a database snapshot: the page may be shared between
        #: clones, so every mutator refuses to run until the owner makes
        #: a private copy (:meth:`copy`, arranged by the buffer pool's
        #: copy-on-write path).
        self.frozen = False
        #: The schema's byte codec, when every field is codec-capable
        #: (attached by the owning access method at allocation time);
        #: ``None`` keeps the page tuple-only (blob pages, index pages).
        self.codec: Optional[Any] = None
        #: Cached slotted byte image; only valid while ``frozen``.
        self._buf: Optional[bytes] = None

    # ------------------------------------------------------------------
    # snapshot / byte-form support
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Seal the page for snapshot sharing (mutators will refuse)."""
        self.frozen = True

    def __deepcopy__(self, memo: dict) -> "Page":
        # A frozen page is immutable and shared by every snapshot clone
        # (first write goes through :meth:`copy`); anything else gets a
        # private copy.
        return self if self.frozen else self.copy()

    def copy(self) -> "Page":
        """A private, unfrozen duplicate with identical contents.

        Records are immutable tuples and are shared, not copied.
        """
        if self.records is None:
            self._materialize()
        dup = Page.__new__(Page)
        dup.page_id = self.page_id
        dup.capacity = self.capacity
        dup.used_bytes = self.used_bytes
        dup.free_bytes = self.free_bytes
        dup.records = list(self.records)  # type: ignore[arg-type]
        dup._sizes = list(self._sizes)  # type: ignore[arg-type]
        dup.frozen = False
        dup.codec = self.codec
        dup._buf = None
        return dup

    def _materialize(self) -> List[Any]:
        """Decode the byte image into the working tuple form (lazy)."""
        buf = self._buf
        assert buf is not None
        if self.codec is None:
            # Codec-less arena stub: the image is a pickle of the
            # decoded lists (see :mod:`repro.storage.arena`), written at
            # build time and revived here on first read.
            self.records, self._sizes = pickle.loads(buf)
            return self.records  # type: ignore[return-value]
        records = self.codec.decode(buf)
        record_size = self.codec.schema.record_size
        self.records = records
        self._sizes = [record_size(r) for r in records]
        return records

    def iter_records(self) -> Iterator[Any]:
        """Iterate the page's records as one decoded batch.

        This is the batched-consumption entry point: one call per page,
        then plain list iteration — no per-record method dispatch.
        """
        records = self.records
        if records is None:
            records = self._materialize()
        return iter(records)

    def record_batch(self) -> List[Any]:
        """The decoded record list itself (callers must not mutate it)."""
        records = self.records
        if records is None:
            records = self._materialize()
        return records

    def to_bytes(self) -> bytes:
        """The slotted byte image of the page (requires a codec).

        Frozen pages cache the encoding — they can never change again —
        so writing a page into several arenas encodes it once.
        """
        if self.codec is None:
            raise ValueError("page %s has no codec" % (self.page_id,))
        if self._buf is not None:
            return self._buf
        buf = self.codec.encode(self.record_batch())
        if self.frozen:
            self._buf = buf
        return buf

    def _require_mutable(self) -> None:
        if self.frozen:
            raise FrozenPageError(
                "mutation of frozen page %s without copy-on-write" % (self.page_id,)
            )

    # ------------------------------------------------------------------
    # capacity & mutation
    # ------------------------------------------------------------------
    def fits(self, record_size: int) -> bool:
        """Whether a record of ``record_size`` bytes can be inserted."""
        return record_size + SLOT_BYTES <= self.free_bytes

    def insert(self, record: Any, record_size: int) -> int:
        """Append ``record``; return its slot number.

        Raises :class:`PageFullError` if the record does not fit.  Callers
        are expected to probe with :meth:`fits` on the normal path; the
        exception guards against accounting bugs.
        """
        self._require_mutable()
        total = record_size + SLOT_BYTES
        if total > self.free_bytes:
            raise PageFullError(
                "record of %d bytes does not fit in %d free bytes on %s"
                % (record_size, self.free_bytes, self.page_id)
            )
        records = self.records
        if records is None:
            records = self._materialize()
        records.append(record)
        self._sizes.append(record_size)  # type: ignore[union-attr]
        self.used_bytes += total
        self.free_bytes -= total
        return len(records) - 1

    def replace(self, slot: int, record: Any, record_size: Optional[int] = None) -> None:
        """Overwrite the record in ``slot`` (in-place update).

        If ``record_size`` is given and differs from the old size, the page
        budget is adjusted; an update that would overflow raises
        :class:`PageFullError` (the paper's updates are same-size in-place
        modifications, so this path is exercised only by tests).
        """
        self._require_mutable()
        records = self.records
        if records is None:
            records = self._materialize()
        old_size = self._sizes[slot]  # type: ignore[index]
        new_size = old_size if record_size is None else record_size
        growth = new_size - old_size
        if growth > self.free_bytes:
            raise PageFullError(
                "in-place growth of %d bytes does not fit on %s" % (growth, self.page_id)
            )
        records[slot] = record
        self._sizes[slot] = new_size  # type: ignore[index]
        self.used_bytes += growth
        self.free_bytes -= growth

    def delete(self, slot: int) -> Any:
        """Remove and return the record in ``slot`` (compacting the page)."""
        self._require_mutable()
        records = self.records
        if records is None:
            records = self._materialize()
        record = records.pop(slot)
        size = self._sizes.pop(slot)  # type: ignore[union-attr]
        self.used_bytes -= size + SLOT_BYTES
        self.free_bytes += size + SLOT_BYTES
        return record

    def pop_all(self) -> List[Any]:
        """Remove and return every record (used when rebuilding pages)."""
        self._require_mutable()
        records = self.records
        if records is None:
            records = self._materialize()
        self.records = []
        self._sizes = []
        self.used_bytes = PAGE_HEADER_BYTES
        self.free_bytes = self.capacity - PAGE_HEADER_BYTES
        return records

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def get(self, slot: int) -> Any:
        records = self.records
        if records is None:
            records = self._materialize()
        return records[slot]

    def record_size(self, slot: int) -> int:
        if self._sizes is None:
            self._materialize()
        return self._sizes[slot]  # type: ignore[index]

    def __len__(self) -> int:
        records = self.records
        if records is None:
            records = self._materialize()
        return len(records)

    def __iter__(self) -> Iterator[Any]:
        return self.iter_records()

    def entries(self) -> Iterator[Tuple[int, Any]]:
        """Iterate ``(slot, record)`` pairs."""
        return enumerate(self.record_batch())

    # ------------------------------------------------------------------
    # invariants (for tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the slot table and byte accounting (debug hook).

        The incremental ``used_bytes``/``free_bytes`` bookkeeping must
        always equal what a re-derivation from the slot table gives:
        header plus one slot entry and the recorded size per record.
        Byte-form pages are decoded first; nothing here touches the
        buffer pool or the I/O counters.
        """
        records = self.records
        if records is None:
            records = self._materialize()
        sizes = self._sizes
        if sizes is None or len(records) != len(sizes):
            raise AssertionError(
                "page %s slot table out of step: %d records, %r sizes"
                % (self.page_id, len(records), None if sizes is None else len(sizes))
            )
        expected = PAGE_HEADER_BYTES + sum(sizes) + len(sizes) * SLOT_BYTES
        if self.used_bytes != expected:
            raise AssertionError(
                "page %s used_bytes=%d but slot table sums to %d"
                % (self.page_id, self.used_bytes, expected)
            )
        if self.free_bytes != self.capacity - self.used_bytes:
            raise AssertionError(
                "page %s free_bytes=%d is not capacity %d minus used %d"
                % (self.page_id, self.free_bytes, self.capacity, self.used_bytes)
            )
        if self.used_bytes > self.capacity:
            raise AssertionError(
                "page %s overflows its capacity: %d > %d"
                % (self.page_id, self.used_bytes, self.capacity)
            )
        if any(size < 0 for size in sizes):
            raise AssertionError("page %s records a negative size" % (self.page_id,))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Page(%s, %d records, %d/%d bytes)" % (
            self.page_id,
            len(self),
            self.used_bytes,
            self.capacity,
        )
