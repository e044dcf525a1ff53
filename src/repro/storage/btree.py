"""B+tree files.

ParentRel and ChildRel are "structured as B-trees on OID" and ClusterRel
as a B-tree on cluster# (Section 4 of the paper).  This module implements a
page-based B+tree with:

* data records on leaf pages, in key order, chained left-to-right;
* internal pages of ``(separator_key, child_page_no)`` entries;
* bulk loading from sorted input (the paper's relations are static — "in
  our environment there are no insertions or deletions");
* dynamic insert with leaf/internal splits, so the structure is also a
  complete general-purpose access method (exercised by tests and by the
  examples, not by the reproduction workload);
* in-place updates of equal-size records (the paper's update queries);
* :meth:`BTreeFile.merge_walk`, the sorted-probe pattern of the merge
  join (ascending keys touch each qualifying leaf page once), and
  :meth:`BTreeFile.probe_many`, the nested-loop join's descent per key.

Node "header" fields (is-leaf flag, next-leaf pointer) live in two flat
sidecar columns indexed by ``page_no`` rather than on the page records —
a ``bytearray`` and an ``array('q')``, so a snapshot clone copies them
with two C-level copies however many pages the tree has; in a real
engine they occupy the page header, which
:data:`repro.storage.page.PAGE_HEADER_BYTES` already charges for.
Internal entries are charged ``INDEX_ENTRY_BYTES`` each, so index
fan-out — and therefore how many index pages compete for buffer space —
is realistic.

Raw-speed notes
---------------

Two operators carry the probes, both tested counter for counter against
the record-at-a-time cursor loop of ``tests/storage/btree_cursor.py``.
Every touch they do not fetch follows the buffer pool's one rule: a
re-touch of the page touched last is booked as a hit, after asking the
pool (see "The page touched last" in :mod:`repro.storage.buffer`).

* ``merge_walk`` — **sorted** probes (the merge join): keys arrive a
  batch at a time, and a key on the current leaf costs touches of that
  leaf only;
* ``probe_many`` — **unsorted** probes (the nested-loop join; ``lookup``
  and ``lookup_one`` are its one-key forms): an inline descent of real
  fetches per key.  When the match is unique and not the leaf's last
  record, the cursor loop's further touches of the just-fetched leaf
  are four re-touches of the page touched last: ``hits += 4``.  A
  last-slot match, a duplicate run or an absent key may step to the
  next leaf, so those take ``_collect_matches``, touch by touch.

``update_field`` is a ``lookup_one`` and an ``update``.
"""

from __future__ import annotations

import bisect
import operator
from array import array
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.page import SLOT_BYTES, Page, PageId
from repro.storage.record import Schema

#: Bytes per internal-node entry (key + child pointer).
INDEX_ENTRY_BYTES = 12

KeyFunc = Callable[[Tuple[Any, ...]], Any]


#: ``_next_leaf`` entry of the last leaf (and of every internal node).
NO_LEAF = -1


class BTreeFile:
    """A keyed relation stored as a B+tree.

    ``key_name`` selects the schema field used as the key.  Keys must be
    unique unless ``unique=False``.
    """

    def __init__(
        self,
        pool: BufferPool,
        schema: Schema,
        key_name: str,
        name: str = "btree",
        unique: bool = True,
    ) -> None:
        self.pool = pool
        self.schema = schema
        self.key_name = key_name
        self._key_index = schema.field_index(key_name)
        self.name = name
        self.unique = unique
        self.file_id = pool.disk.create_file(name)
        # Node headers, one entry per page of the file (the tree is the
        # file's only allocator, so page numbers are dense from 0):
        # 1 = leaf / 0 = internal, and the right sibling's page_no
        # (``NO_LEAF`` for the last leaf and for internal nodes).
        self._is_leaf = bytearray()
        self._next_leaf = array("q")
        self._root: Optional[int] = None
        self._first_leaf: Optional[int] = None
        self._num_records = 0
        self.height = 0
        # Memoized key columns, keyed by page_no and guarded by the
        # page's mutation counter: page_no -> (page.version, keys).
        # Extracting keys is pure computation (no I/O is skipped — the
        # page itself is still fetched through the buffer pool), but it
        # dominated profile time on B-tree-heavy sweeps.
        self._leaf_key_cache: Dict[int, Tuple[int, List[Any]]] = {}
        self._sep_cache: Dict[int, Tuple[int, List[Any]]] = {}
        # Cached disk.page_ids() list for this (single-writer) file;
        # dropped whenever the tree allocates a page.  PageId values are
        # positional, so a cached list is valid until the file grows.
        self._ids: Optional[List[PageId]] = None

    def __getstate__(self) -> Dict[str, Any]:
        # The key caches are pure memoization (dropping them skips no
        # I/O); excluding them keeps database snapshots small and lets
        # every snapshot clone rebuild its own caches on first use
        # instead of carrying a deep copy of the template's.
        state = self.__dict__.copy()
        state["_leaf_key_cache"] = {}
        state["_sep_cache"] = {}
        state["_ids"] = None
        return state

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def num_pages(self) -> int:
        return self.pool.disk.num_pages(self.file_id)

    @property
    def num_leaf_pages(self) -> int:
        return self._is_leaf.count(1)

    def _key(self, record: Tuple[Any, ...]) -> Any:
        return record[self._key_index]

    def key_of(self, record: Tuple[Any, ...]) -> Any:
        """The key value of ``record`` under this tree's key field."""
        return record[self._key_index]

    # ------------------------------------------------------------------
    # bulk load
    # ------------------------------------------------------------------
    def bulk_load(
        self, records: List[Tuple[Any, ...]], fill_factor: float = 1.0
    ) -> None:
        """Build the tree from ``records`` sorted ascending by key.

        ``fill_factor`` limits how full each leaf is packed (1.0 packs to
        capacity, reproducing the paper's tuple-per-page densities for the
        freshly loaded, static relations).
        """
        if self._root is not None or self.num_pages:
            raise StorageError("bulk_load on non-empty btree %r" % self.name)
        if not 0.1 <= fill_factor <= 1.0:
            raise ValueError("fill_factor must be in [0.1, 1.0]")
        key_index = self._key_index
        keys = [r[key_index] for r in records]
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            raise StorageError("bulk_load input must be sorted by %r" % self.key_name)
        if self.unique and len(set(keys)) != len(keys):
            raise DuplicateKeyError("bulk_load input has duplicate keys")

        # --- leaves -----------------------------------------------------
        validate = self.schema.validate
        record_size = self.schema.record_size
        new_node = self._new_node
        next_leaf = self._next_leaf
        leaf_nos: List[int] = []
        leaf_first_keys: List[Any] = []
        page: Optional[Page] = None
        slack = 0.0
        for record in records:
            validate(record)
            size = record_size(record)
            if page is not None and size + SLOT_BYTES > page.free_bytes - slack:
                page = None
            if page is None:
                page = new_node(True)
                slack = page.capacity * (1.0 - fill_factor)
                no = page.page_id.page_no
                if leaf_nos:
                    next_leaf[leaf_nos[-1]] = no
                leaf_nos.append(no)
                leaf_first_keys.append(record[key_index])
            page.insert(record, size)
            self._num_records += 1

        if not leaf_nos:  # empty tree: single empty leaf as root
            leaf_nos = [new_node(True).page_id.page_no]
            leaf_first_keys = [None]

        self._first_leaf = leaf_nos[0]

        # --- internal levels, bottom-up ----------------------------------
        level_nos = leaf_nos
        level_keys = leaf_first_keys
        self.height = 1
        while len(level_nos) > 1:
            parent_nos: List[int] = []
            parent_keys: List[Any] = []
            page = None
            for child_no, child_key in zip(level_nos, level_keys):
                if page is None or not page.fits(INDEX_ENTRY_BYTES):
                    page = new_node(False)
                    parent_nos.append(page.page_id.page_no)
                    parent_keys.append(child_key)
                page.insert((child_key, child_no), INDEX_ENTRY_BYTES)
            level_nos = parent_nos
            level_keys = parent_keys
            self.height += 1
        self._root = level_nos[0]

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def _page_ids(self) -> List[PageId]:
        """The file's ``PageId`` list, cached until the tree allocates."""
        ids = self._ids
        if ids is None:
            ids = self._ids = self.pool.disk.page_ids(self.file_id)
        return ids

    def _new_node(self, is_leaf: bool) -> Page:
        """Allocate the next page of the file and append its header."""
        page = self.pool.new_page(self.file_id)
        self._ids = None  # the file grew
        if is_leaf:
            page.codec = self.schema.codec
        self._is_leaf.append(is_leaf)
        self._next_leaf.append(NO_LEAF)
        return page

    def _next(self, leaf_no: int) -> Optional[int]:
        """Right sibling of ``leaf_no`` (None at the end of the chain)."""
        right = self._next_leaf[leaf_no]
        return right if right >= 0 else None

    def _fetch(self, page_no: int) -> Page:
        return self.pool.fetch(PageId(self.file_id, page_no))

    def _fetch_writable(self, page_no: int) -> Page:
        """Fetch with write intent (copy-on-write for snapshot clones)."""
        return self.pool.writable(PageId(self.file_id, page_no))

    def _leaf_keys(self, page: Page) -> List[Any]:
        page_no = page.page_id.page_no
        cached = self._leaf_key_cache.get(page_no)
        if cached is not None and cached[0] == page.version:
            return cached[1]
        records = page.records
        if records is None:
            records = page._materialize()
        key_index = self._key_index
        keys = [r[key_index] for r in records]
        self._leaf_key_cache[page_no] = (page.version, keys)
        return keys

    def _separators(self, page: Page) -> List[Any]:
        page_no = page.page_id.page_no
        cached = self._sep_cache.get(page_no)
        if cached is not None and cached[0] == page.version:
            return cached[1]
        records = page.records
        if records is None:
            records = page._materialize()
        seps = [entry[0] for entry in records]
        self._sep_cache[page_no] = (page.version, seps)
        return seps

    def _descend_for_insert(self, key: Any) -> List[int]:
        """Descend for a write, keeping entry-0 separators true bounds.

        A key below a node's first separator is clamped into child 0,
        so entry 0's separator must be lowered to ``key`` as we pass:
        left stale, a later split of that subtree can emit a separator
        at or below the old fence, breaking the strict separator order
        that routing relies on (keys become unreachable).
        """
        if self._root is None:
            raise KeyNotFoundError("btree %r is empty" % self.name)
        path = [self._root]
        node = self._root
        while not self._is_leaf[node]:
            page = self._fetch(node)
            seps = self._separators(page)
            idx = bisect.bisect_right(seps, key) - 1
            if idx < 0:
                idx = 0
                page = self._fetch_writable(node)
                child = page.get(0)[1]
                page.replace(0, (key, child), INDEX_ENTRY_BYTES)
                self.pool.mark_dirty(page.page_id)
            node = page.get(idx)[1]
            path.append(node)
        return path

    def _descend_leaf(self, key: Any, ids: List[PageId]) -> int:
        """The leaf page number for ``key``: one fetch per index level."""
        is_leaf = self._is_leaf
        fetch = self.pool.fetch
        sep_cache = self._sep_cache
        bisect_right = bisect.bisect_right
        node = self._root
        while not is_leaf[node]:
            page = fetch(ids[node])
            cached = sep_cache.get(node)
            if cached is not None and cached[0] == page.version:
                seps = cached[1]
            else:
                seps = self._separators(page)
            idx = bisect_right(seps, key) - 1
            if idx < 0:
                idx = 0
            records = page.records
            if records is None:
                records = page._materialize()
            node = records[idx][1]
        return node

    def _find_leaf_slot(self, key: Any) -> Tuple[Optional[int], int]:
        """Leaf page and slot of the first record with key >= ``key``."""
        if self._root is None:
            return None, 0
        ids = self._page_ids()
        leaf_no = self._descend_leaf(key, ids)
        page = self.pool.fetch(ids[leaf_no])
        slot = bisect.bisect_left(self._leaf_keys(page), key)
        return leaf_no, slot

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _collect_matches(self, page: Page, slot: int, key: Any) -> List[Tuple[Any, ...]]:
        """All records with ``key`` from ``slot`` of ``page``, the leaf
        the descent just fetched.

        Emulates the cursor loop (seek / current / advance) **touch by
        touch**: a touch of the page touched last is booked as a hit, any
        other is a real fetch, so counters and eviction stream are
        bit-identical to the cursor reference.
        """
        pool = self.pool
        stats = pool.stats
        fetch = pool.fetch
        ids = self._page_ids()
        next_leaf = self._next_leaf
        key_index = self._key_index
        page_no = page.page_id.page_no
        out: List[Tuple[Any, ...]] = []
        while True:
            # _skip_to_valid(): a touch per leaf tried, moving right past
            # exhausted leaves (the next leaf is a real fetch).
            if pool.last.page is page:
                stats.hits += 1
            else:
                page = fetch(ids[page_no])
            records = page.records
            if records is None:
                records = page._materialize()
            while slot >= len(records):
                page_no = next_leaf[page_no]
                if page_no < 0:
                    return out
                slot = 0
                page = fetch(ids[page_no])
                records = page.records
                if records is None:
                    records = page._materialize()
            # current(): a touch of the same leaf, then a read.
            if pool.last.page is page:
                stats.hits += 1
            else:
                fetch(ids[page_no])
            record = records[slot]
            if record[key_index] != key:
                return out
            out.append(record)
            slot += 1  # advance()

    def probe_many(
        self,
        keys: Sequence[Any],
        project: Optional[Callable[[Tuple[Any, ...]], Any]] = None,
    ) -> List[Any]:
        """The (projected) matches of ``keys``, probed in the given order.

        The unsorted-probe operator of a nested-loop join: one
        root-to-leaf descent per key, touch for touch the cursor loop
        (see "Raw-speed notes" for the four-touch rule).  Absent keys
        match nothing.  ``keys`` is a materialised sequence, so nothing
        but this loop touches the pool between two probes.
        """
        out: List[Any] = []
        root = self._root
        if root is None:
            return out
        ids = self._page_ids()
        pool = self.pool
        stats = pool.stats
        fetch = pool.fetch
        is_leaf = self._is_leaf
        sep_cache = self._sep_cache
        key_cache = self._leaf_key_cache
        bisect_right = bisect.bisect_right
        bisect_left = bisect.bisect_left
        append = out.append
        for key in keys:
            node = root
            while not is_leaf[node]:
                page = fetch(ids[node])
                cached = sep_cache.get(node)
                if cached is not None and cached[0] == page.version:
                    seps = cached[1]
                else:
                    seps = self._separators(page)
                idx = bisect_right(seps, key) - 1
                if idx < 0:
                    idx = 0
                records = page.records
                if records is None:
                    records = page._materialize()
                node = records[idx][1]
            page = fetch(ids[node])
            cached = key_cache.get(node)
            if cached is not None and cached[0] == page.version:
                lkeys = cached[1]
            else:
                lkeys = self._leaf_keys(page)
            slot = bisect_left(lkeys, key)
            if (
                slot + 1 < len(lkeys)
                and lkeys[slot] == key != lkeys[slot + 1]
                and pool.last.page is page
            ):
                stats.hits += 4
                records = page.records
                if records is None:
                    records = page._materialize()
                record = records[slot]
                append(record if project is None else project(record))
            else:
                matches = self._collect_matches(page, slot, key)
                out.extend(matches if project is None else map(project, matches))
        return out

    def lookup(self, key: Any) -> List[Tuple[Any, ...]]:
        """All records with exactly ``key`` (one element when unique)."""
        return self.probe_many((key,))

    def lookup_one(self, key: Any) -> Tuple[Any, ...]:
        """The unique record with ``key``; raises KeyNotFoundError."""
        records = self.probe_many((key,))
        if not records:
            raise KeyNotFoundError("key %r not in btree %r" % (key, self.name))
        return records[0]

    def contains(self, key: Any) -> bool:
        return bool(self.lookup(key))

    def range_scan_pages(
        self, lo: Any = None, hi: Any = None, include_hi: bool = True
    ) -> Iterator[List[Tuple[Any, ...]]]:
        """Records with lo <= key <= hi (or < hi), one list per leaf.

        ``None`` bounds are open.  One pool touch per leaf and nothing
        else: no pool operation separates two records of one list, so a
        consumer may treat each list as a unit.  Callers must NOT mutate
        the yielded lists (a whole leaf is handed out as the page's own).
        """
        if self._root is None:
            return
        if lo is None:
            page_no, slot = self._first_leaf, 0
        else:
            page_no, slot = self._find_leaf_slot(lo)
        key_index = self._key_index
        next_leaf = self._next_leaf
        fetch = self.pool.fetch
        beyond = operator.gt if include_hi else operator.ge
        while page_no >= 0:
            # Re-check the ids cache each leaf: an insert interleaved with
            # an open scan can split a leaf and grow the file.
            ids = self._ids
            if ids is None:
                ids = self._page_ids()
            page = fetch(ids[page_no])
            records = page.records
            if records is None:
                records = page._materialize()
            if hi is not None and records and beyond(records[-1][key_index], hi):
                # The range ends on this leaf.
                cut = bisect.bisect_right if include_hi else bisect.bisect_left
                end = cut(self._leaf_keys(page), hi)
                if slot < end:
                    yield records[slot:end]
                return
            if slot < len(records):
                yield records[slot:] if slot else records
            page_no = next_leaf[page_no]
            slot = 0

    def range_scan(
        self, lo: Any = None, hi: Any = None, include_hi: bool = True
    ) -> Iterator[Tuple[Any, ...]]:
        """:meth:`range_scan_pages`, record by record; ``range_scan()``
        is a full ordered scan."""
        for records in self.range_scan_pages(lo, hi, include_hi):
            yield from records

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        """Full scan in key order."""
        return self.range_scan()

    def _walk_fetch(self, page_no: int) -> Tuple[Page, List[Tuple[Any, ...]], int]:
        """Really fetch leaf ``page_no`` for :meth:`merge_walk`: the page,
        its records and its version."""
        page = self.pool.fetch(self._page_ids()[page_no])
        records = page.records
        if records is None:
            records = page._materialize()
        return page, records, page.version

    def merge_walk(
        self,
        key_batches: Iterable[Sequence[Any]],
        project: Optional[Callable[[Tuple[Any, ...]], Any]] = None,
    ) -> Iterator[Any]:
        """Yield the (projected) matches of ascending probe keys.

        The sorted-probe walk of a merge join, touch for touch what a
        :class:`BTreeCursor` driven ``seek`` / ``current`` / ``advance``
        per key performs: a key on the current leaf costs touches of that
        leaf only, any other key a root-to-leaf descent; a probe key equal
        to its predecessor re-emits the previous matches without a touch;
        absent keys match nothing.

        Keys arrive in batches; the consumer and the outer may use the
        pool between two matches and between two batches.  A touch of the
        walk's leaf is booked as a hit when the pool's page touched last
        is the very page (and version) the walk holds, and is a real
        fetch otherwise (see "Raw-speed notes").  Booked hits are added to
        the counters when a batch ends and when the walk ends.
        """
        if self._root is None:
            for _ in key_batches:  # an empty tree still consumes its outer
                pass
            return
        pool = self.pool
        stats = pool.stats
        next_leaf = self._next_leaf
        key_index = self._key_index
        bisect_left = bisect.bisect_left
        page_no = -1  # leaf under the walk (-1: not positioned / exhausted)
        slot = 0
        page = None  # leaf page_no as the walk last fetched it ...
        version = -1  # ... and its version then
        records: List[Tuple[Any, ...]] = []
        keys: Optional[List[Any]] = None
        hits = 0  # booked touches not yet added to the counters
        last_key: Any = object()
        matches: List[Any] = []
        try:
            for batch in key_batches:
                for key in batch:
                    if key == last_key:
                        yield from matches
                        continue
                    last_key = key
                    matches = []
                    skip = True
                    if page_no >= 0:
                        # seek(): one touch, then stay if the leaf spans key.
                        granted = pool.last.page is page and page.version == version
                        if granted:
                            hits += 1
                        else:
                            page, records, version = self._walk_fetch(page_no)
                            keys = None
                        if keys is None:
                            keys = self._leaf_keys(page)
                        if keys and keys[0] <= key <= keys[-1]:
                            slot = bisect_left(keys, key)
                            skip = False
                    if skip:
                        # seek() by descent, ending in a real leaf fetch.
                        page_no = self._descend_leaf(key, self._page_ids())
                        page, records, version = self._walk_fetch(page_no)
                        keys = self._leaf_keys(page)
                        slot = bisect_left(keys, key)
                    while True:
                        if skip:
                            # _skip_to_valid(): a touch per leaf tried,
                            # moving right past exhausted leaves (the next
                            # leaf is a real fetch).
                            granted = pool.last.page is page and page.version == version
                            if granted:
                                hits += 1
                            else:
                                page, records, version = self._walk_fetch(page_no)
                                keys = None
                            while slot >= len(records):
                                page_no = next_leaf[page_no]
                                if page_no < 0:
                                    break
                                slot = 0
                                page, records, version = self._walk_fetch(page_no)
                                keys = None
                                granted = False
                            if page_no < 0:
                                break
                        # current(): a touch of the same leaf and a read,
                        # right after the touch above: booked on its grant,
                        # else the pool is asked.
                        if granted or pool.last.page is page:
                            hits += 1
                        else:
                            self._walk_fetch(page_no)
                        record = records[slot]
                        if record[key_index] != key:
                            break
                        value = record if project is None else project(record)
                        matches.append(value)
                        yield value
                        slot += 1  # advance()
                        skip = True
                # The outer is about to move: book the deferred hits.
                stats.hits += hits
                hits = 0
        finally:
            stats.hits += hits

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, record: Tuple[Any, ...]) -> None:
        """Insert one record, splitting nodes as needed."""
        self.schema.validate(record)
        key = self._key(record)
        size = self.schema.record_size(record)
        if self._root is None:
            page = self._new_node(True)
            page.insert(record, size)
            self._root = self._first_leaf = page.page_id.page_no
            self.height = 1
            self._num_records += 1
            return

        path = self._descend_for_insert(key)
        leaf_no = path[-1]
        page = self._fetch_writable(leaf_no)
        keys = self._leaf_keys(page)
        slot = bisect.bisect_left(keys, key)
        if self.unique and slot < len(keys) and keys[slot] == key:
            raise DuplicateKeyError(
                "duplicate key %r in unique btree %r" % (key, self.name)
            )
        if page.fits(size):
            page.insert_at(slot, record, size)
            self.pool.mark_dirty(page.page_id)
        else:
            self._split_leaf(path, record, size, slot)
        self._num_records += 1

    def _split_leaf(
        self, path: List[int], record: Tuple[Any, ...], size: int, slot: int
    ) -> None:
        leaf_no = path[-1]
        page = self._fetch_writable(leaf_no)
        records = page.pop_all()
        records.insert(slot, record)
        mid = len(records) // 2
        left, right = records[:mid], records[mid:]
        right_page = self._new_node(True)
        right_no = right_page.page_id.page_no
        self._next_leaf[right_no] = self._next_leaf[leaf_no]
        self._next_leaf[leaf_no] = right_no
        for r in left:
            page.insert(r, self.schema.record_size(r))
        for r in right:
            right_page.insert(r, self.schema.record_size(r))
        self.pool.mark_dirty(page.page_id)
        sep = self._key(right[0])
        self._insert_separator(path[:-1], sep, right_no)

    def _insert_separator(self, path: List[int], sep: Any, child_no: int) -> None:
        if not path:  # splitting the root: grow a level
            new_root = self._new_node(False)
            old_root = self._root
            assert old_root is not None
            old_first = self._lowest_key(old_root)
            new_root.insert((old_first, old_root), INDEX_ENTRY_BYTES)
            new_root.insert((sep, child_no), INDEX_ENTRY_BYTES)
            self._root = new_root.page_id.page_no
            self.height += 1
            return
        node_no = path[-1]
        page = self._fetch_writable(node_no)
        seps = self._separators(page)
        slot = bisect.bisect_right(seps, sep)
        if page.fits(INDEX_ENTRY_BYTES):
            page.insert_at(slot, (sep, child_no), INDEX_ENTRY_BYTES)
            self.pool.mark_dirty(page.page_id)
            return
        entries = page.pop_all()
        entries.insert(slot, (sep, child_no))
        mid = len(entries) // 2
        left, right = entries[:mid], entries[mid:]
        right_page = self._new_node(False)
        right_no = right_page.page_id.page_no
        for e in left:
            page.insert(e, INDEX_ENTRY_BYTES)
        for e in right:
            right_page.insert(e, INDEX_ENTRY_BYTES)
        self.pool.mark_dirty(page.page_id)
        self._insert_separator(path[:-1], right[0][0], right_no)

    def _lowest_key(self, node_no: int) -> Any:
        """A lower bound for every key in the subtree at ``node_no``.

        For an internal node the first separator is already a
        maintained lower bound (see :meth:`_descend_for_insert`), and
        descending instead could land on a leftmost leaf emptied by
        lazy deletes — whose ``None`` would poison the new root's
        separator order.  A leaf here is only ever the just-split old
        root, whose left half is never empty.
        """
        if not self._is_leaf[node_no]:
            return self._fetch(node_no).get(0)[0]
        page = self._fetch(node_no)
        return self._key(page.get(0)) if len(page) else None

    def update(self, key: Any, new_record: Tuple[Any, ...]) -> None:
        """Replace the record with ``key`` in place.

        The new record must carry the same key; size changes are allowed
        as long as the page can absorb them (the reproduction workload
        only rewrites fixed-size integer fields).
        """
        self.schema.validate(new_record)
        if self._key(new_record) != key:
            raise StorageError("update must preserve the key")
        page_no, slot = self._find_leaf_slot(key)
        if page_no is None:
            raise KeyNotFoundError("key %r not in btree %r" % (key, self.name))
        page = self._fetch_writable(page_no)
        keys = self._leaf_keys(page)
        if slot >= len(keys) or keys[slot] != key:
            raise KeyNotFoundError("key %r not in btree %r" % (key, self.name))
        old_version = page.version
        page.replace(slot, new_record, self.schema.record_size(new_record))
        # Key-preserving replace: re-stamp the memoized key column.
        cached = self._leaf_key_cache.get(page_no)
        if cached is not None and cached[0] == old_version:
            self._leaf_key_cache[page_no] = (page.version, cached[1])
        self.pool.mark_dirty(page.page_id)

    def update_field(self, key: Any, field_name: str, value: Any) -> Tuple[Any, ...]:
        """Set one field of the record with ``key``; return the new record.

        A :meth:`lookup_one`, then :meth:`update` with the new record:
        touch for touch a read descent and a write descent, the read's
        re-touches of its leaf booked under the pool's one rule (see
        "Raw-speed notes").
        """
        old = self.lookup_one(key)
        index = self.schema.field_index(field_name)
        new_record = old[:index] + (value,) + old[index + 1:]
        self.update(key, new_record)
        return new_record

    def delete(self, key: Any) -> Tuple[Any, ...]:
        """Remove and return the (first) record with ``key``.

        Lazy deletion: the leaf may become underfull or even empty, but is
        never merged — the common practice in production B-trees, and the
        structure remains correct (empty leaves are skipped by scans and
        cursors).  Reinsertion reuses the free space.
        """
        page_no, slot = self._find_leaf_slot(key)
        if page_no is None:
            raise KeyNotFoundError("key %r not in btree %r" % (key, self.name))
        page = self._fetch_writable(page_no)
        keys = self._leaf_keys(page)
        if slot >= len(keys) or keys[slot] != key:
            raise KeyNotFoundError("key %r not in btree %r" % (key, self.name))
        record = page.delete(slot)
        self.pool.mark_dirty(page.page_id)
        self._num_records -= 1
        return record

    def delete_if_present(self, key: Any) -> bool:
        """Delete ``key`` if present; return whether a record was removed."""
        try:
            self.delete(key)
            return True
        except KeyNotFoundError:
            return False

    # ------------------------------------------------------------------
    # invariants (for tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify ordering, structure and occupancy without charging I/O.

        Checks, in order: the leaf chain covers exactly ``num_records``
        in key order; every node reachable from the root has metadata,
        exact page byte accounting, and keys/separators inside the fence
        bounds implied by its ancestors; all leaves sit at ``height``;
        the left-to-right leaf order of the tree equals the leaf chain;
        and every allocated page is part of the tree.  All reads go
        through :meth:`DiskManager.peek_page`, so a check perturbs
        neither the I/O counters nor the buffer pool.
        """
        if self._root is None:
            if self._num_records:
                raise AssertionError(
                    "empty btree %r claims %d records" % (self.name, self._num_records)
                )
            return
        disk = self.pool.disk
        # Leaf chain covers all records in nondecreasing key order.
        seen = 0
        last_key = None
        node: Optional[int] = self._first_leaf
        while node is not None:
            page = disk.peek_page(PageId(self.file_id, node))
            for record in page:
                key = self._key(record)
                if last_key is not None:
                    if self.unique and not last_key < key:
                        raise AssertionError("leaf chain key order violated")
                    if not self.unique and not last_key <= key:
                        raise AssertionError("leaf chain key order violated")
                last_key = key
                seen += 1
            node = self._next(node)
        if seen != self._num_records:
            raise AssertionError(
                "leaf chain has %d records, expected %d" % (seen, self._num_records)
            )
        # Structural walk from the root: fence bounds, typing, depth,
        # byte accounting.  The DFS pushes children right-to-left so
        # leaves are visited in tree (left-to-right) order.
        is_leaf = self._is_leaf
        key_of = self._key
        ordered_leaves: List[int] = []
        reachable = set()
        stack: List[Tuple[int, int, Any, Any]] = [(self._root, 1, None, None)]
        while stack:
            node, depth, lo, hi = stack.pop()
            if node in reachable:
                raise AssertionError("page %d reached twice in btree walk" % node)
            reachable.add(node)
            if not 0 <= node < len(is_leaf):
                raise AssertionError("page %d has no node metadata" % node)
            page = disk.peek_page(PageId(self.file_id, node))
            page.check_invariants()
            if is_leaf[node]:
                if depth != self.height:
                    raise AssertionError(
                        "leaf %d at depth %d in a tree of height %d"
                        % (node, depth, self.height)
                    )
                ordered_leaves.append(node)
                for record in page:
                    key = key_of(record)
                    if lo is not None and key < lo:
                        raise AssertionError(
                            "key %r in leaf %d below fence %r" % (key, node, lo)
                        )
                    # Non-unique trees may split a run of equal keys
                    # across a separator, so the upper fence is inclusive
                    # for them and exclusive for unique trees.
                    if hi is not None and (key > hi or (self.unique and key == hi)):
                        raise AssertionError(
                            "key %r in leaf %d above fence %r" % (key, node, hi)
                        )
            else:
                entries = page.record_batch()
                if not entries:
                    raise AssertionError("internal node %d is empty" % node)
                seps = [entry[0] for entry in entries]
                # A non-unique tree may split a run of equal keys, so
                # its separators need only be non-decreasing.
                if self.unique:
                    bad = any(seps[i] >= seps[i + 1] for i in range(len(seps) - 1))
                else:
                    bad = any(seps[i] > seps[i + 1] for i in range(len(seps) - 1))
                if bad:
                    raise AssertionError(
                        "separators of node %d out of order" % node
                    )
                for i in range(len(entries) - 1, -1, -1):
                    # Child 0 also receives keys below seps[0] (the
                    # descent clamps), so it inherits the parent's fence.
                    child_lo = lo if i == 0 else seps[i]
                    child_hi = seps[i + 1] if i + 1 < len(seps) else hi
                    stack.append((entries[i][1], depth + 1, child_lo, child_hi))
        if not len(reachable) == len(is_leaf) == len(self._next_leaf):
            raise AssertionError(
                "tree reaches %d pages but metadata tracks %d/%d"
                % (len(reachable), len(is_leaf), len(self._next_leaf))
            )
        if len(reachable) != self.num_pages:
            raise AssertionError(
                "tree reaches %d pages of %d allocated"
                % (len(reachable), self.num_pages)
            )
        # The leaf chain must be exactly the tree's left-to-right leaves.
        chain: List[int] = []
        node = self._first_leaf
        while node is not None:
            chain.append(node)
            node = self._next(node)
        if chain != ordered_leaves:
            raise AssertionError(
                "leaf chain %r disagrees with tree order %r" % (chain, ordered_leaves)
            )
