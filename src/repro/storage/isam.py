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
compete for buffer space exactly as they did in INGRES.  Late insertions
go to overflow pages chained off the covering leaf, the classic ISAM
degradation (exercised by tests, not by the reproduction workload).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
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
        self._overflow_next: Dict[int, int] = {}  # page_no -> overflow page_no
        self._num_entries = 0
        self._built = False
        # Memoized per-page key columns, version-guarded like the B-tree's
        # (pure computation — the page is still fetched through the pool).
        self._key_cache: Dict[int, Tuple[int, List[Any]]] = {}
        # The disk's page_ids() list, which it keeps in step as the file
        # grows (like the B-tree's).
        self._ids: Optional[List[PageId]] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_key_cache"] = {}
        state["_ids"] = None
        return state

    def _entry_keys(self, page: Any) -> List[Any]:
        page_no = page.page_id.page_no
        cached = self._key_cache.get(page_no)
        if cached is not None and cached[0] == page.version:
            return cached[1]
        records = page.records
        if records is None:
            records = page._materialize()
        keys = [e[0] for e in records]
        self._key_cache[page_no] = (page.version, keys)
        return keys

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
    def _covering_primary(self, key: Any) -> Optional[int]:
        """Primary page number whose key range covers ``key``."""
        if not self._directory:
            return None
        idx = bisect.bisect_right(self._directory, key) - 1
        if idx < 0:
            idx = 0
        return self._primary_nos[idx]

    def _chain(self, page_no: int) -> Iterator[int]:
        """Yield ``page_no`` and its overflow chain."""
        current: Optional[int] = page_no
        while current is not None:
            yield current
            current = self._overflow_next.get(current)

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
        page_no: Optional[int] = self._primary_nos[idx]
        pool = self.pool
        fetch = pool.fetch
        ids = self._ids
        if ids is None:
            ids = self._ids = pool.disk.page_ids(self.file_id)
        overflow_next = self._overflow_next
        while page_no is not None:
            page = fetch(ids[page_no])
            entry_keys = self._entry_keys(page)
            slot = bisect.bisect_left(entry_keys, key)
            if slot < len(entry_keys) and entry_keys[slot] == key:
                records = page.records
                if records is None:
                    records = page._materialize()
                return records[slot][1]
            page_no = overflow_next.get(page_no)
        return default

    def insert(self, key: Any, payload: Any) -> None:
        """Add an entry after build time, via overflow chaining."""
        if not self._built:
            raise StorageError("isam %r not built yet" % self.name)
        start = self._covering_primary(key)
        if start is None:
            raise StorageError("cannot insert into an empty isam %r" % self.name)
        if self.get(key) is not None:
            raise DuplicateKeyError("key %r already in isam %r" % (key, self.name))
        last = start
        for page_no in self._chain(start):
            last = page_no
            page = self.pool.writable(PageId(self.file_id, page_no))
            if page.fits(ISAM_ENTRY_BYTES):
                entry_keys = self._entry_keys(page)
                slot = bisect.bisect_left(entry_keys, key)
                page.insert_at(slot, (key, payload), ISAM_ENTRY_BYTES)
                self.pool.mark_dirty(page.page_id)
                self._num_entries += 1
                return
        overflow = self.pool.new_page(self.file_id)
        overflow.insert((key, payload), ISAM_ENTRY_BYTES)
        self._overflow_next[last] = overflow.page_id.page_no
        self._num_entries += 1

    def scan(self) -> Iterator[Tuple[Any, Any]]:
        """Yield every ``(key, payload)`` in key order within each chain."""
        for start in self._primary_nos:
            chain_entries: List[Tuple[Any, Any]] = []
            for page_no in self._chain(start):
                page = self.pool.fetch(PageId(self.file_id, page_no))
                chain_entries.extend(page.record_batch())
            chain_entries.sort(key=lambda e: e[0])
            for entry in chain_entries:
                yield entry

    def overflow_pages(self) -> int:
        """How many overflow pages exist (ISAM degradation measure)."""
        return len(self._overflow_next)

    def __len__(self) -> int:
        return self._num_entries

    # ------------------------------------------------------------------
    # invariants (for tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify directory, chain and ordering structure (debug hook).

        The directory is strictly increasing and parallel to the primary
        page list; chains are acyclic and disjoint; every page is
        individually sorted (cross-page order within a chain is NOT an
        invariant — overflow pages fill in insertion order and
        :meth:`scan` re-sorts per chain); every key lies in its chain's
        covering directory range, keys are unique, tallies match, and
        chains account for every allocated page.  Reads go through
        :meth:`DiskManager.peek_page` — no I/O is charged.
        """
        if not self._built:
            if self._num_entries or self._primary_nos or self._overflow_next:
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
        disk = self.pool.disk
        visited = set()
        seen_keys = set()
        total = 0
        for idx, start in enumerate(self._primary_nos):
            lo = directory[idx]
            hi = directory[idx + 1] if idx + 1 < len(directory) else None
            for page_no in self._chain(start):
                if page_no in visited:
                    raise AssertionError(
                        "page %d chained twice (cycle or shared chain)" % page_no
                    )
                visited.add(page_no)
                page = disk.peek_page(PageId(self.file_id, page_no))
                page.check_invariants()
                page_keys = [entry[0] for entry in page.record_batch()]
                if not page_keys:
                    raise AssertionError("empty page %d in isam chain" % page_no)
                if any(
                    page_keys[i] >= page_keys[i + 1]
                    for i in range(len(page_keys) - 1)
                ):
                    raise AssertionError("page %d not sorted within itself" % page_no)
                if page_no == start and idx > 0 and page_keys[0] != lo:
                    # The first chain also covers keys below directory[0]
                    # (the probe clamps), so only later primaries must
                    # open with their directory key.
                    raise AssertionError(
                        "primary page %d opens with %r, directory says %r"
                        % (page_no, page_keys[0], lo)
                    )
                for key in page_keys:
                    if key in seen_keys:
                        raise AssertionError("duplicate key %r in isam" % (key,))
                    seen_keys.add(key)
                    if idx > 0 and key < lo:
                        raise AssertionError(
                            "key %r below covering range of chain %d" % (key, idx)
                        )
                    if hi is not None and key >= hi:
                        raise AssertionError(
                            "key %r above covering range of chain %d" % (key, idx)
                        )
                total += len(page_keys)
        if total != self._num_entries:
            raise AssertionError(
                "chains hold %d entries, expected %d" % (total, self._num_entries)
            )
        if visited != set(range(self.num_pages)):
            raise AssertionError(
                "chains reach %d pages of %d allocated"
                % (len(visited), self.num_pages)
            )
