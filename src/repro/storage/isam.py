"""Static ISAM indexes.

Section 4 of the paper: "In order to randomly access an object with a given
OID, we need an index on ClusterRel.OID.  In our environment there are no
insertions or deletions, and hence the index is static.  Consequently, it
is maintained as an isam structure."

An :class:`IsamIndex` maps keys to small payloads (here: the data page
number, or the cluster#, of the indexed record).  It is built once from
sorted entries packed onto index pages; a small in-memory directory of
first-keys models the (few, hot) upper directory levels, while the index
*leaf* pages are real pages read through the buffer pool — so ISAM probes
compete for buffer space exactly as they did in INGRES.  The index is
never changed after :meth:`IsamIndex.build`, so it has no overflow pages,
and each page's key column, worked out on first probe, is shared by every
clone through the B-tree's :class:`~repro.storage.btree.StaticMemo`.
"""

from __future__ import annotations

import bisect
from typing import Any, List, Tuple

from repro.errors import KeyNotFoundError, StorageError
from repro.storage.btree import StaticMemo
from repro.storage.buffer import BufferPool
from repro.storage.page import PageId

#: Bytes per ISAM entry (key + payload pointer).
ISAM_ENTRY_BYTES = 12


class IsamIndex:
    """Static sorted index from unique keys to payloads."""

    def __init__(self, pool: BufferPool, name: str = "isam") -> None:
        self.pool = pool
        self.name = name
        self.file_id = pool.disk.create_file(name)
        self._directory: List[Any] = []  # first key of each primary page
        self._primary_nos: List[int] = []
        self._num_entries = 0
        self._built = False
        self._memo = StaticMemo()

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def num_pages(self) -> int:
        return self.pool.disk.num_pages(self.file_id)

    def build(self, entries: List[Tuple[Any, Any]]) -> None:
        """Load sorted ``(key, payload)`` pairs into primary pages."""
        if self._built:
            raise StorageError("isam %r already built" % self.name)
        keys = [k for k, _ in entries]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise StorageError("isam build input must be strictly sorted by key")
        self._memo = StaticMemo()  # an unbuilt index's memo may be shared
        page = None
        for entry in entries:
            if page is None or not page.fits(ISAM_ENTRY_BYTES):
                page = self.pool.new_page(self.file_id)
                self._primary_nos.append(page.page_id.page_no)
                self._directory.append(entry[0])
            page.insert(entry, ISAM_ENTRY_BYTES)
            self._num_entries += 1
        self._built = True

    # ------------------------------------------------------------------
    def lookup(self, key: Any) -> Any:
        """Payload for ``key``; raises :class:`KeyNotFoundError` if absent."""
        payload = self.get(key)
        if payload is None:
            raise KeyNotFoundError("key %r not in isam %r" % (key, self.name))
        return payload

    def get(self, key: Any, default: Any = None) -> Any:
        """Payload for ``key`` or ``default``."""
        directory = self._directory
        if not directory:
            return default
        idx = bisect.bisect_right(directory, key) - 1
        if idx < 0:
            idx = 0
        memo = self._memo
        ids = memo.ids
        if ids is None:
            ids = memo.ids = self.pool.disk.page_ids(self.file_id)
        page = self.pool.fetch(ids[self._primary_nos[idx]])
        entry_keys = memo.column(page, 0)
        slot = bisect.bisect_left(entry_keys, key)
        if slot < len(entry_keys) and entry_keys[slot] == key:
            records = page.records
            if records is None:
                records = page._materialize()
            return records[slot][1]
        return default

    # ------------------------------------------------------------------
    # invariants (for tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify directory and page structure (debug hook).

        The directory is strictly increasing and parallel to the primary
        page list, which is every allocated page in order; every page is
        non-empty, strictly sorted, opens with its directory key and
        stays below the next one; the tally matches; and the memoized key
        columns and id list equal what the pages hold.  Reads go through
        :meth:`DiskManager.peek_page` — no I/O is charged.
        """
        if not self._built:
            if self._num_entries or self._primary_nos:
                raise AssertionError("unbuilt isam %r carries state" % self.name)
            return
        directory = self._directory
        if len(directory) != len(self._primary_nos):
            raise AssertionError(
                "directory has %d entries for %d primary pages"
                % (len(directory), len(self._primary_nos))
            )
        if any(directory[i] >= directory[i + 1] for i in range(len(directory) - 1)):
            raise AssertionError("isam directory not strictly increasing")
        if self._primary_nos != list(range(self.num_pages)):
            raise AssertionError(
                "primary pages %r are not the %d allocated pages in order"
                % (self._primary_nos, self.num_pages)
            )
        disk = self.pool.disk
        total = 0
        for idx, page_no in enumerate(self._primary_nos):
            page = disk.peek_page(PageId(self.file_id, page_no))
            page.check_invariants()
            page_keys = [entry[0] for entry in page.record_batch()]
            if not page_keys:
                raise AssertionError("empty isam page %d" % page_no)
            if any(page_keys[i] >= page_keys[i + 1] for i in range(len(page_keys) - 1)):
                raise AssertionError("page %d not sorted within itself" % page_no)
            if page_keys[0] != directory[idx]:
                raise AssertionError(
                    "page %d opens with %r, directory says %r"
                    % (page_no, page_keys[0], directory[idx])
                )
            if idx + 1 < len(directory) and page_keys[-1] >= directory[idx + 1]:
                raise AssertionError(
                    "key %r of page %d above the next directory key"
                    % (page_keys[-1], page_no)
                )
            total += len(page_keys)
        if total != self._num_entries:
            raise AssertionError(
                "pages hold %d entries, expected %d" % (total, self._num_entries)
            )
        self._memo.check(disk, self.file_id, lambda no: 0)
