"""Static hash files.

The cache relation of Section 4 — ``Cache(hashkey, value)`` — "is
maintained as a hash relation, hashed on hashkey".  A :class:`HashFile`
implements classic static hashing: a fixed number of bucket (primary)
pages allocated up front, each with an overflow chain that grows as
needed.  Unlike the paper's base relations, the cache sees inserts and
deletes continuously (units cached, units invalidated), so this is the
one access method with a delete path; it also supports lookup, scan and
truncate.

Records are arbitrary schema tuples; ``key_name`` selects the hash-key
field.  Keys are unique (a hashkey identifies one cached unit): the file
keeps its key set in memory beside the chain map, so an insert rejects a
duplicate before it touches a page.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import DuplicateKeyError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.page import PageId
from repro.storage.record import Schema

DEFAULT_BUCKETS = 64


def stable_hash(key: Any) -> int:
    """Process-independent hash (Python's ``hash`` of str is randomized)."""
    if type(key) is int:  # the unit cache's hashkeys
        return key & 0x7FFFFFFFFFFFFFFF
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key & 0x7FFFFFFFFFFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, tuple):
        acc = 0x345678
        for part in key:
            acc = (acc * 1000003) ^ stable_hash(part)
            acc &= 0x7FFFFFFFFFFFFFFF
        return acc
    raise TypeError("unhashable key type for hash file: %r" % type(key).__name__)


class HashFile:
    """Static-hashing keyed file with per-bucket overflow chains."""

    def __init__(
        self,
        pool: BufferPool,
        schema: Schema,
        key_name: str,
        buckets: int = DEFAULT_BUCKETS,
        name: str = "hash",
    ) -> None:
        if buckets <= 0:
            raise ValueError("buckets must be positive, got %d" % buckets)
        self.pool = pool
        self.schema = schema
        self.key_name = key_name
        self._key_index = schema.field_index(key_name)
        self.buckets = buckets
        self.name = name
        self.file_id = pool.disk.create_file(name)
        # Primary pages are allocated eagerly so bucket b == page_no b.
        for _ in range(buckets):
            self.pool.new_page(self.file_id)
        self._overflow_next: Dict[int, int] = {}
        self._free_overflow: List[int] = []
        self._keys: Set[Any] = set()
        self._num_records = 0

    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def num_pages(self) -> int:
        return self.pool.disk.num_pages(self.file_id)

    def _key(self, record: Tuple[Any, ...]) -> Any:
        return record[self._key_index]

    def _bucket(self, key: Any) -> int:
        return stable_hash(key) % self.buckets

    def _chain(self, bucket: int) -> Iterator[int]:
        current: Optional[int] = bucket
        while current is not None:
            yield current
            current = self._overflow_next.get(current)

    # ------------------------------------------------------------------
    # Inline chain walks: a fetch or writable touch per page (and a
    # writable page is always decoded, so ``page.records`` is set).
    def lookup(self, key: Any) -> Optional[Tuple[Any, ...]]:
        """The record with ``key`` or None; reads the bucket chain."""
        key_index = self._key_index
        pool = self.pool
        fetch = pool.fetch
        ids = pool.disk.page_ids(self.file_id)
        overflow_next = self._overflow_next
        page_no: Optional[int] = self._bucket(key)
        while page_no is not None:
            page = fetch(ids[page_no])
            records = page.records
            if records is None:
                records = page._materialize()
            for record in records:
                if record[key_index] == key:
                    return record
            page_no = overflow_next.get(page_no)
        return None

    def contains(self, key: Any) -> bool:
        return self.lookup(key) is not None

    def insert(self, record: Tuple[Any, ...]) -> None:
        """Insert ``record`` on the first chain page with room; raises
        DuplicateKeyError on key reuse, before any page is touched."""
        self.schema.validate(record)
        key = record[self._key_index]
        if key in self._keys:
            raise DuplicateKeyError("key %r already in hash file %r" % (key, self.name))
        size = self.schema.record_size(record)
        pool = self.pool
        ids = pool.disk.page_ids(self.file_id)
        page_no = self._bucket(key)
        while True:
            page = pool.writable(ids[page_no])
            if page.fits(size):
                break
            last, page_no = page_no, self._overflow_next.get(page_no)
            if page_no is None:
                page_no = self._grab_overflow_page()
                page = pool.writable(ids[page_no])
                if not page.fits(size):
                    raise StorageError(
                        "record of %d bytes exceeds page capacity in %r"
                        % (size, self.name)
                    )
                self._overflow_next[last] = page_no
                break
        page.insert(record, size)
        pool.mark_dirty(page.page_id)
        self._keys.add(key)
        self._num_records += 1

    def delete_if_present(self, key: Any) -> bool:
        """Delete ``key`` if present; return whether a record was removed."""
        return self._remove(key) is not None

    def _remove(self, key: Any) -> Optional[Tuple[Any, ...]]:
        """The delete walk: remove and return ``key``'s record, or None."""
        key_index = self._key_index
        pool = self.pool
        ids = pool.disk.page_ids(self.file_id)
        prev: Optional[int] = None
        page_no: Optional[int] = self._bucket(key)
        while page_no is not None:
            page = pool.writable(ids[page_no])
            for slot, record in enumerate(page.records):
                if record[key_index] == key:
                    page.delete(slot)
                    pool.mark_dirty(page.page_id)
                    self._keys.discard(key)
                    self._num_records -= 1
                    self._maybe_unlink(prev, page_no)
                    return record
            prev = page_no
            page_no = self._overflow_next.get(page_no)
        return None

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        """Yield every record, bucket by bucket."""
        for bucket in range(self.buckets):
            for page_no in self._chain(bucket):
                page = self.pool.fetch(PageId(self.file_id, page_no))
                for record in page:
                    yield record

    def truncate(self) -> None:
        """Remove every record, keeping only the primary pages allocated.

        A truncated file must be physically indistinguishable from a
        freshly created one: re-grabbing a free-listed overflow page costs
        a read where appending a new page does not, so leaving history
        behind would make measured costs depend on how the file was used
        before the reset.  Overflow pages (chained or free-listed) are
        therefore deallocated outright.
        """
        for bucket in range(self.buckets):
            page_id = PageId(self.file_id, bucket)
            page = self.pool.writable(page_id)
            if len(page):
                page.pop_all()
                self.pool.mark_dirty(page_id)
        overflow = set(self._overflow_next.values())
        overflow.update(self._free_overflow)
        for page_no in sorted(overflow):
            self.pool.invalidate_page(PageId(self.file_id, page_no))
        self._overflow_next.clear()
        self._free_overflow = []
        self._keys.clear()
        self.pool.disk.shrink_file(self.file_id, self.buckets)
        self._num_records = 0

    # ------------------------------------------------------------------
    def overflow_pages(self) -> int:
        return len(self._overflow_next)

    def __len__(self) -> int:
        return self._num_records

    # ------------------------------------------------------------------
    # invariants (for tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify overflow-chain integrity without charging I/O.

        Chains are acyclic and disjoint, never route through another
        bucket's primary page, and carry no empty overflow pages (the
        delete path unlinks them eagerly).  Every record sits in the
        chain of the bucket its key hashes to, keys are unique across
        the file and are exactly the in-memory key set, the record
        tally matches, the free list is disjoint
        from the chains, and chains plus free list account for every
        allocated page.  Pages are read via
        :meth:`DiskManager.peek_page` — no I/O, no pool perturbation.
        """
        disk = self.pool.disk
        visited = set()
        keys = set()
        total = 0
        for bucket in range(self.buckets):
            for page_no in self._chain(bucket):
                if page_no in visited:
                    raise AssertionError(
                        "page %d chained twice (cycle or shared chain)" % page_no
                    )
                visited.add(page_no)
                if page_no != bucket and page_no < self.buckets:
                    raise AssertionError(
                        "chain of bucket %d routes through primary page %d"
                        % (bucket, page_no)
                    )
                page = disk.peek_page(PageId(self.file_id, page_no))
                page.check_invariants()
                if page_no >= self.buckets and not len(page):
                    raise AssertionError(
                        "empty overflow page %d left in chain of bucket %d"
                        % (page_no, bucket)
                    )
                for record in page:
                    key = self._key(record)
                    if key in keys:
                        raise AssertionError("duplicate key %r in hash file" % (key,))
                    keys.add(key)
                    home = self._bucket(key)
                    if home != bucket:
                        raise AssertionError(
                            "key %r hashes to bucket %d but sits in chain of %d"
                            % (key, home, bucket)
                        )
                total += len(page)
        if total != self._num_records:
            raise AssertionError(
                "chains hold %d records, expected %d" % (total, self._num_records)
            )
        if keys != self._keys:
            raise AssertionError(
                "key set and chains disagree on %r" % (self._keys ^ keys,)
            )
        free = self._free_overflow
        if len(set(free)) != len(free):
            raise AssertionError("free overflow list holds duplicates: %r" % (free,))
        for page_no in free:
            if page_no < self.buckets:
                raise AssertionError("primary page %d on the free list" % page_no)
            if page_no in visited:
                raise AssertionError("free-listed page %d still chained" % page_no)
        allocated = set(range(self.num_pages))
        if visited | set(free) != allocated:
            raise AssertionError(
                "orphaned or phantom pages: chained %r + free %r != allocated %d"
                % (sorted(visited), sorted(free), len(allocated))
            )

    # ------------------------------------------------------------------
    def _grab_overflow_page(self) -> int:
        if self._free_overflow:
            return self._free_overflow.pop()
        return self.pool.new_page(self.file_id).page_id.page_no

    def _maybe_unlink(self, prev: Optional[int], page_no: int) -> None:
        """Recycle an overflow page that became empty."""
        if prev is None or page_no < self.buckets:
            return
        page = self.pool.fetch(PageId(self.file_id, page_no))
        if len(page):
            return
        nxt = self._overflow_next.get(page_no)
        if nxt is not None:
            self._overflow_next[prev] = nxt
            del self._overflow_next[page_no]
        else:
            del self._overflow_next[prev]
        self._free_overflow.append(page_no)
