"""Unordered heap files.

Heaps back the temporary relations that the breadth-first strategies build
(``temp`` in Section 3.1 of the paper): records are appended, scanned in
file order, and the file is truncated or dropped; nothing addresses a
single record.  All page traffic flows through the buffer pool, so filling
a temporary charges exactly the write-backs a real engine would pay.

:meth:`HeapFile.insert_many` books a tail touch as a hit while the tail
is the page touched last (the pool's one rule, see "The page touched
last" in :mod:`repro.storage.buffer`) instead of fetching it — counters
and eviction stream bit-identical to one :meth:`HeapFile.insert` per
record, an order of magnitude less Python per record.  Scans hand out
whole decoded pages (:meth:`HeapFile.scan_pages`) so consumers pay one
pool touch and one method call per page, not per record.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.storage.buffer import BufferPool
from repro.storage.page import PageId, SLOT_BYTES
from repro.storage.record import Schema


class HeapFile:
    """Append-oriented file of records with full-scan access.

    The heap remembers only its tail page number; inserts go to the tail,
    allocating a new page when the record does not fit.  Records are
    validated against ``schema`` on insert.
    """

    def __init__(self, pool: BufferPool, schema: Schema, name: str = "heap") -> None:
        self.pool = pool
        self.schema = schema
        self.name = name
        self.file_id = pool.disk.create_file(name)
        self._num_records = 0
        # Mirror of the tail page number (None while the file is empty);
        # the heap is the only writer of its file, so this avoids asking
        # the disk manager for the page count on every insert.
        self._tail_page_no: Optional[int] = None
        # Per-record size when the schema is fixed-size (the common case
        # for temporaries of OIDs) — skips record_size() on every insert.
        self._fixed_size = schema._fixed_record_size

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return self.pool.disk.num_pages(self.file_id)

    @property
    def num_records(self) -> int:
        return self._num_records

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, record: Tuple[Any, ...]) -> None:
        """Append ``record`` to the tail page.

        One :meth:`BufferPool.writable` touch of the tail per record: the
        literal reference :meth:`insert_many` is tested against.
        """
        self.schema.validate(record)
        size = self._fixed_size
        if size is None:
            size = self.schema.record_size(record)
        pool = self.pool
        if self._tail_page_no is not None:
            tail_id = PageId(self.file_id, self._tail_page_no)
            page = pool.writable(tail_id)
            if page.fits(size):
                page.insert(record, size)
                pool.mark_dirty(tail_id)
                self._num_records += 1
                return
        page = pool.new_page(self.file_id)
        page.codec = self.schema.codec
        self._tail_page_no = page.page_id.page_no
        page.insert(record, size)
        self._num_records += 1

    def insert_many(self, records: Iterable[Tuple[Any, ...]]) -> int:
        """Append each record; return how many were inserted.

        Accounting-identical to calling :meth:`insert` once per record —
        one tail touch per record, the same new-page allocations at the
        same boundaries — but a touch of a tail that is still the page
        touched last is booked as a hit, not fetched.  Every touch asks
        the pool, because a pull from a lazy ``records`` iterable may
        touch it; the first touch of a call is a real fetch.

        A materialised ``list`` of fixed-size records that one batch
        check proves valid cannot touch the pool while it is consumed,
        so it is appended a page run at a time (:meth:`_insert_run`).
        """
        if (
            self._fixed_size is not None
            and type(records) is list
            and self.schema.validate_many(records)
        ):
            return self._insert_run(records)
        pool = self.pool
        cow_page = pool.disk.cow_page
        schema = self.schema
        validate = schema.validate
        record_size = schema.record_size
        fixed = self._fixed_size
        codec = schema.codec
        file_id = self.file_id
        tail_id = None
        if self._tail_page_no is not None:
            tail_id = PageId(file_id, self._tail_page_no)
        page = None  # the tail page as this call last touched it
        hits = 0  # booked tail touches, added to the counters on the way out
        count = 0
        try:
            for record in records:
                validate(record)
                size = fixed
                if size is None:
                    size = record_size(record)
                if tail_id is not None:
                    frame = pool.last
                    if page is not None and frame.page is page:
                        hits += 1
                    else:
                        frame = pool.fetch_frame(tail_id)
                        page = frame.page
                    if page.frozen:
                        frame.page = page = cow_page(tail_id)
                    total = size + SLOT_BYTES
                    if total <= page.free_bytes:
                        records_l = page.records
                        if records_l is None:
                            records_l = page._materialize()
                        records_l.append(record)
                        page._sizes.append(size)
                        page.used_bytes += total
                        page.free_bytes -= total
                        frame.dirty = True
                        count += 1
                        continue
                # Empty file or full tail (whose touch was counted above):
                # allocate a fresh tail page.
                page = pool.new_page(file_id)
                page.codec = codec
                tail_id = page.page_id
                self._tail_page_no = tail_id.page_no
                page.insert(record, size)
                count += 1
        finally:
            pool.stats.hits += hits
            self._num_records += count
        return count

    def _insert_run(self, records: List[Tuple[Any, ...]]) -> int:
        """:meth:`insert_many` for a validated list of fixed-size records.

        Nothing but this loop touches the pool while a list is consumed,
        so once the tail is the page touched last (the first touch of a
        call is a real fetch), every touch until the list ends or the tail
        fills is a hit on it.  Such a page run is filled with one
        ``extend`` and its touches are booked in one step: one per record
        it takes, plus one for the record that finds it full, less the one
        a real fetch of the tail already paid.
        """
        n = len(records)
        pool = self.pool
        size = self._fixed_size
        total = size + SLOT_BYTES
        file_id = self.file_id
        page = None  # the tail page as this call last touched it
        pos = 0
        try:
            while pos < n:
                if self._tail_page_no is not None:
                    frame = pool.last
                    paid = page is None or frame.page is not page
                    if paid:  # a real touch, for records[pos]
                        frame = pool.fetch_frame(PageId(file_id, self._tail_page_no))
                        page = frame.page
                    if page.frozen:
                        frame.page = page = pool.disk.cow_page(page.page_id)
                    # Without the pool's grant, this step takes one record.
                    booked = pool.last.page is page
                    room = n - pos if booked else 1
                    fit = min(page.free_bytes // total, room)
                    if fit:
                        page_records = page.records
                        if page_records is None:
                            page_records = page._materialize()
                        page_records.extend(records[pos : pos + fit])
                        page._sizes.extend([size] * fit)
                        page.used_bytes += total * fit
                        page.free_bytes -= total * fit
                        frame.dirty = True
                        pos += fit
                    if booked:
                        pool.stats.hits += fit + (fit < room) - paid
                    if fit == room:
                        continue
                # Empty file or full tail: allocate a fresh tail page,
                # whose first record costs no touch.
                page = pool.new_page(file_id)
                page.codec = self.schema.codec
                self._tail_page_no = page.page_id.page_no
                page.insert(records[pos], size)
                pos += 1
        finally:
            self._num_records += pos
        return n

    def truncate(self) -> None:
        """Discard all records and pages (buffered frames are dropped)."""
        self.pool.invalidate_file(self.file_id)
        self.pool.disk.truncate_file(self.file_id)
        self._num_records = 0
        self._tail_page_no = None

    def drop(self) -> None:
        """Destroy the file entirely.  The heap must not be used afterwards."""
        self.pool.invalidate_file(self.file_id)
        self.pool.disk.drop_file(self.file_id)
        self._num_records = 0
        self._tail_page_no = None

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def scan_pages(self) -> Iterator[List[Tuple[Any, ...]]]:
        """Yield each page's decoded record list, in file order.

        One buffer-pool touch per page (the same traffic a record-at-a-
        time scan charges); callers must NOT mutate the yielded lists.
        """
        pool = self.pool
        fetch = pool.fetch
        # The page count is pinned at generator start (the disk grows the
        # ids list in place); pages appended by interleaved inserts are
        # not part of this scan.
        ids = pool.disk.page_ids(self.file_id)
        for page_no in range(self.num_pages):
            page = fetch(ids[page_no])
            records = page.records
            if records is None:
                records = page._materialize()
            yield records

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        """Yield every record in file order."""
        for records in self.scan_pages():
            yield from records

    def __len__(self) -> int:
        return self._num_records

    # ------------------------------------------------------------------
    # invariants (for tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify page accounting and tail bookkeeping (debug hook).

        The record tally must equal the sum over all pages, every page's
        byte accounting must hold, and the cached tail page number must
        point at the last allocated page (or be None exactly when the
        file has no pages).  Reads go through
        :meth:`DiskManager.peek_page` — no I/O, no pool perturbation.
        """
        disk = self.pool.disk
        num_pages = self.num_pages
        total = 0
        for page_no in range(num_pages):
            page = disk.peek_page(PageId(self.file_id, page_no))
            page.check_invariants()
            total += len(page)
        if total != self._num_records:
            raise AssertionError(
                "pages hold %d records, expected %d" % (total, self._num_records)
            )
        if self._tail_page_no is None:
            if num_pages:
                raise AssertionError(
                    "heap %r has %d pages but no tail" % (self.name, num_pages)
                )
        elif self._tail_page_no != num_pages - 1:
            raise AssertionError(
                "tail page %d is not the last of %d pages"
                % (self._tail_page_no, num_pages)
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "HeapFile(%r, %d records, %d pages)" % (
            self.name,
            self._num_records,
            self.num_pages,
        )
