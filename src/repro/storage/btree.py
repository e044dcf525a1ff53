"""B+tree files.

ParentRel and ChildRel are "structured as B-trees on OID" and ClusterRel
as a B-tree on cluster# (Section 4 of the paper).  The paper's relations
are static ("in our environment there are no insertions or deletions"),
so a :class:`BTreeFile` is bulk-loaded once from sorted, unique keys and
then only probed, scanned and updated in place.  It has:

* data records on leaf pages, in key order, chained left-to-right;
* internal pages of ``(separator_key, child_page_no)`` entries, each
  separator the first key of its subtree;
* in-place updates that keep the key (the paper's update queries);
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
  and ``lookup_one`` are its one-key forms): a descent of real
  fetches per key.  When the key is present and not the leaf's last
  record, the cursor loop's further touches of the just-fetched leaf
  are four re-touches of the page touched last: ``hits += 4``.  A
  last-slot match or an absent key may step to the next leaf, so those
  take ``_collect_matches``, touch by touch.

A probed key's route (leaf, slot, four-touch flag: one int; the leaf's
``PageId`` path: one tuple) is remembered, and a later probe replays it
as one :meth:`BufferPool.fetch_path`: the descent's touches, not its
work.  Routes live in a :class:`StaticMemo` beside each node's key
column (a leaf's keys, an internal node's separators) and the file's
``PageId`` list.  Only ``bulk_load`` sets any of them, so the memo is
exact: the clones of a frozen snapshot share it, a pickle or arena
stores it empty, and nothing guards it against a page that changes.

``update_field`` is a ``lookup_one`` and an ``update`` from one route:
the probe, then the route replayed and a writable touch of its leaf.
The route is exact, so the write re-checks only the changed field.
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

#: ``_next_leaf`` entry of the last leaf (and of every internal node).
NO_LEAF = -1

#: A remembered route: ``leaf_no << _LEAF_SHIFT | slot << 1 | four`` (slot < 2**20).
_LEAF_SHIFT = 21
_SLOT_MASK = (1 << 20) - 1


class StaticMemo(dict):
    """What a static structure's shape determines, worked out once.

    The dict maps a probed key to its packed route; ``paths`` maps a
    leaf to its root-to-leaf ``PageId``s; ``keys`` maps a page number to
    its key column (a B-tree leaf's keys, an internal node's separators,
    an ISAM page's entry keys); ``ids`` is the file's ``PageId`` list.
    Filling it is pure computation: every page is still fetched through
    the pool.  It serves :class:`BTreeFile` and
    :class:`~repro.storage.isam.IsamIndex`, whose keys only
    ``bulk_load``/``build`` set, so every clone shares one memo and a
    pickle or arena stores it empty.  Every entry is a function of those
    keys alone, so threads filling it at once can only write equal
    values.
    """

    __slots__ = ("paths", "keys", "ids")

    def __init__(self) -> None:
        self.paths: Dict[int, Tuple[PageId, ...]] = {}
        self.keys: Dict[int, List[Any]] = {}
        self.ids: Optional[List[PageId]] = None

    def __deepcopy__(self, memo: dict) -> "StaticMemo":
        return self

    def __reduce__(self) -> Tuple[Any, ...]:
        return StaticMemo, ()

    def column(self, page: Page, index: int) -> List[Any]:
        """Field ``index`` of every record of ``page``, memoized by page number."""
        page_no = page.page_id.page_no
        column = self.keys.get(page_no)
        if column is None:
            column = self.keys[page_no] = [r[index] for r in page.record_batch()]
        return column

    def check(self, disk: Any, file_id: int, index_of: Callable[[int], int]) -> None:
        """Every memoized key column, and the id list, equals what the file
        holds; ``index_of(page_no)`` is the key field of that page's
        records.  Pages are read with :meth:`DiskManager.peek_page`, so
        the check charges no I/O."""
        if self.ids is not None and self.ids != [
            PageId(file_id, no) for no in range(disk.num_pages(file_id))
        ]:
            raise AssertionError("memoized page ids differ from file %d" % file_id)
        for page_no, column in self.keys.items():
            index = index_of(page_no)
            records = disk.peek_page(PageId(file_id, page_no)).record_batch()
            if column != [r[index] for r in records]:
                raise AssertionError(
                    "memoized keys of page %d differ from the page" % page_no
                )


class BTreeFile:
    """A keyed relation stored as a static B+tree.

    ``key_name`` selects the schema field used as the key; keys are
    unique.
    """

    def __init__(
        self, pool: BufferPool, schema: Schema, key_name: str, name: str = "btree"
    ) -> None:
        self.pool = pool
        self.schema = schema
        self.key_name = key_name
        self._key_index = schema.field_index(key_name)
        self.name = name
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
        self._memo = StaticMemo()

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

    # ------------------------------------------------------------------
    # bulk load
    # ------------------------------------------------------------------
    def bulk_load(self, records: List[Tuple[Any, ...]]) -> None:
        """Build the tree from ``records`` sorted ascending by unique key.

        Leaves are packed to capacity, reproducing the paper's
        tuple-per-page densities for the freshly loaded relations.
        """
        if self._root is not None or self.num_pages:
            raise StorageError("bulk_load on non-empty btree %r" % self.name)
        key_index = self._key_index
        keys = [r[key_index] for r in records]
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            raise StorageError("bulk_load input must be sorted by %r" % self.key_name)
        if len(set(keys)) != len(keys):
            raise DuplicateKeyError("bulk_load input has duplicate keys")
        self._memo = StaticMemo()  # an empty tree's memo may be shared

        # --- leaves -----------------------------------------------------
        validate = self.schema.validate
        record_size = self.schema.record_size
        new_node = self._new_node
        next_leaf = self._next_leaf
        leaf_nos: List[int] = []
        leaf_first_keys: List[Any] = []
        page: Optional[Page] = None
        for record in records:
            validate(record)
            size = record_size(record)
            if page is None or size + SLOT_BYTES > page.free_bytes:
                page = new_node(True)
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
        """The file's ``PageId`` list (the disk's, which a loaded tree
        never grows)."""
        memo = self._memo
        ids = memo.ids
        if ids is None:
            ids = memo.ids = self.pool.disk.page_ids(self.file_id)
        return ids

    def _new_node(self, is_leaf: bool) -> Page:
        """Allocate the next page of the file and append its header."""
        page = self.pool.new_page(self.file_id)
        if is_leaf:
            page.codec = self.schema.codec
        self._is_leaf.append(is_leaf)
        self._next_leaf.append(NO_LEAF)
        return page

    def _next(self, leaf_no: int) -> Optional[int]:
        """Right sibling of ``leaf_no`` (None at the end of the chain)."""
        right = self._next_leaf[leaf_no]
        return right if right >= 0 else None

    def _fetch_writable(self, page_no: int) -> Page:
        """Fetch with write intent (copy-on-write for snapshot clones)."""
        return self.pool.writable(PageId(self.file_id, page_no))

    def _leaf_keys(self, page: Page) -> List[Any]:
        return self._memo.column(page, self._key_index)

    def _descend(self, key: Any, ids: List[PageId]) -> List[int]:
        """The one read descent: ``key``'s root-to-leaf page numbers, one
        real fetch per index level (the leaf is not fetched)."""
        is_leaf = self._is_leaf
        fetch = self.pool.fetch
        memo = self._memo
        columns = memo.keys
        bisect_right = bisect.bisect_right
        node = self._root
        path = [node]
        while not is_leaf[node]:
            page = fetch(ids[node])
            seps = columns.get(node)
            if seps is None:
                seps = memo.column(page, 0)
            idx = bisect_right(seps, key) - 1
            if idx < 0:
                idx = 0
            records = page.records
            if records is None:
                records = page._materialize()
            node = records[idx][1]
            path.append(node)
        return path

    def _route(self, key: Any) -> Tuple[Page, int]:
        """:meth:`_descend` and a leaf fetch: ``(leaf page, route)``, remembered."""
        ids = self._page_ids()
        path = self._descend(key, ids)
        node = path[-1]
        page = self.pool.fetch(ids[node])
        keys = self._leaf_keys(page)
        slot = bisect.bisect_left(keys, key)
        four = slot + 1 < len(keys) and keys[slot] == key
        memo = self._memo
        if node not in memo.paths:
            memo.paths[node] = tuple([ids[no] for no in path])
        route = memo[key] = node << _LEAF_SHIFT | slot << 1 | four
        return page, route

    def _find_leaf_slot(self, key: Any) -> Tuple[Optional[int], int]:
        """Leaf page and slot of the first record with key >= ``key``."""
        if self._root is None:
            return None, 0
        route = self._memo.get(key)
        if route is None:
            route = self._route(key)[1]
        else:
            self.pool.fetch_path(self._memo.paths[route >> _LEAF_SHIFT])
        return route >> _LEAF_SHIFT, route >> 1 & _SLOT_MASK

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
        root-to-leaf descent per key, replayed when the key's route is
        remembered, touch for touch the cursor loop (see "Raw-speed
        notes" for the four-touch rule).  Absent keys match nothing.
        ``keys`` is a materialised sequence, so nothing but this loop
        touches the pool between two probes.
        """
        out: List[Any] = []
        if self._root is None:
            return out
        pool = self.pool
        stats = pool.stats
        fetch_path = pool.fetch_path
        remembered, paths = self._memo.get, self._memo.paths
        append = out.append
        for key in keys:
            route = remembered(key)
            if route is None:
                page, route = self._route(key)
            else:
                page = fetch_path(paths[route >> _LEAF_SHIFT])
            slot = route >> 1 & _SLOT_MASK
            if route & 1 and pool.last.page is page:
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
        """The records with exactly ``key``: a list of at most one."""
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
        ids = self._page_ids()
        while page_no >= 0:
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

    def _walk_fetch(self, page_no: int) -> Tuple[Page, List[Tuple[Any, ...]]]:
        """Really fetch leaf ``page_no`` for :meth:`merge_walk`: the page
        and its records."""
        page = self.pool.fetch(self._page_ids()[page_no])
        records = page.records
        if records is None:
            records = page._materialize()
        return page, records

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
        is the very page the walk holds, and is a real fetch otherwise
        (see "Raw-speed notes").  A write to that leaf between two
        matches needs no guard: it keeps every key, and it lands either
        in the record list the walk reads (a private page) or in a
        private copy, which is then the page touched last, so the walk
        fetches it.  Booked hits are added to the counters when a batch
        ends and when the walk ends.
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
        page = None  # leaf page_no as the walk last fetched it
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
                        granted = pool.last.page is page
                        if granted:
                            hits += 1
                        else:
                            page, records = self._walk_fetch(page_no)
                        if keys is None:
                            keys = self._leaf_keys(page)
                        if keys and keys[0] <= key <= keys[-1]:
                            slot = bisect_left(keys, key)
                            skip = False
                    if skip:
                        # seek() by descent, ending in a real leaf fetch.
                        page_no = self._descend(key, self._page_ids())[-1]
                        page, records = self._walk_fetch(page_no)
                        keys = self._leaf_keys(page)
                        slot = bisect_left(keys, key)
                    while True:
                        if skip:
                            # _skip_to_valid(): a touch per leaf tried,
                            # moving right past exhausted leaves (the next
                            # leaf is a real fetch).
                            granted = pool.last.page is page
                            if granted:
                                hits += 1
                            else:
                                page, records = self._walk_fetch(page_no)
                            while slot >= len(records):
                                page_no = next_leaf[page_no]
                                if page_no < 0:
                                    break
                                slot = 0
                                page, records = self._walk_fetch(page_no)
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
        self._rewrite(page, slot, new_record, self.schema.record_size(new_record))

    def update_field(self, key: Any, field_name: str, value: Any) -> Tuple[Any, ...]:
        """Set one field of the record with ``key``; return the new record.

        Touch for touch a :meth:`lookup_one` and an :meth:`update`, from
        one route (see the module docstring).
        """
        if self._root is None:
            raise KeyNotFoundError("key %r not in btree %r" % (key, self.name))
        pool = self.pool
        memo = self._memo
        route = memo.get(key)
        if route is None:
            page, route = self._route(key)
        else:
            page = pool.fetch_path(memo.paths[route >> _LEAF_SHIFT])
        leaf_no = route >> _LEAF_SHIFT
        slot = route >> 1 & _SLOT_MASK
        if route & 1 and pool.last.page is page:
            pool.stats.hits += 4
            old = page.get(slot)
        else:
            matches = self._collect_matches(page, slot, key)
            if not matches:
                raise KeyNotFoundError("key %r not in btree %r" % (key, self.name))
            old = matches[0]
        schema = self.schema
        index = schema.field_index(field_name)
        field = schema.fields[index]
        field.validate(value)
        new_record = old[:index] + (value,) + old[index + 1:]
        if new_record[self._key_index] != key:
            raise StorageError("update must preserve the key")
        size = None if field.fixed_size is not None else schema.record_size(new_record)
        pool.fetch_path(memo.paths[leaf_no])
        self._rewrite(pool.writable(self._page_ids()[leaf_no]), slot, new_record, size)
        return new_record

    def _rewrite(self, page: Page, slot: int, record: Any, size: Optional[int]) -> None:
        """The write step of an update: ``record`` (``size`` bytes; None:
        the old size) over ``slot`` of the leaf ``page``, touched writable.
        The key is kept, so the memoized key column stays exact."""
        page.replace(slot, record, size)
        self.pool.mark_dirty(page.page_id)

    # ------------------------------------------------------------------
    # invariants (for tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify ordering, structure and occupancy without charging I/O.

        Checks, in order: the leaf chain covers exactly ``num_records``
        in strictly increasing key order; every node reachable from the
        root has metadata and exact page byte accounting; every
        separator is the first key of its subtree and the keys of a
        subtree lie below the next separator; only the root leaf of an
        empty tree is empty; all leaves sit at ``height``; the
        left-to-right leaf order of the tree equals the leaf chain; every
        allocated page is part of the tree; and every memoized key column
        and the memoized id list equal what the pages hold (see
        :meth:`StaticMemo.check`).  All reads go through
        :meth:`DiskManager.peek_page`, so a check perturbs neither the
        I/O counters nor the buffer pool.
        """
        if self._root is None:
            if self._num_records:
                raise AssertionError(
                    "empty btree %r claims %d records" % (self.name, self._num_records)
                )
            return
        disk = self.pool.disk
        # Leaf chain covers all records in increasing key order.
        seen = 0
        last_key = None
        node: Optional[int] = self._first_leaf
        while node is not None:
            page = disk.peek_page(PageId(self.file_id, node))
            for record in page:
                key = self._key(record)
                if last_key is not None and not last_key < key:
                    raise AssertionError("leaf chain key order violated")
                last_key = key
                seen += 1
            node = self._next(node)
        if seen != self._num_records:
            raise AssertionError(
                "leaf chain has %d records, expected %d" % (seen, self._num_records)
            )
        # Structural walk from the root: fences, typing, depth, byte
        # accounting.  ``lo`` is the separator that routes to a node (its
        # subtree's first key), ``hi`` the next one.  The DFS pushes
        # children right-to-left so leaves are visited in tree order.
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
                keys = [key_of(record) for record in page]
                if not keys:
                    if node != self._root or self._num_records:
                        raise AssertionError("leaf %d is empty" % node)
                    continue
                first = keys[0]
                if hi is not None and keys[-1] >= hi:
                    raise AssertionError(
                        "key %r in leaf %d above fence %r" % (keys[-1], node, hi)
                    )
            else:
                entries = page.record_batch()
                if not entries:
                    raise AssertionError("internal node %d is empty" % node)
                seps = [entry[0] for entry in entries]
                if any(seps[i] >= seps[i + 1] for i in range(len(seps) - 1)):
                    raise AssertionError(
                        "separators of node %d out of order" % node
                    )
                first = seps[0]
                if hi is not None and seps[-1] >= hi:
                    raise AssertionError(
                        "separator %r of node %d above fence %r" % (seps[-1], node, hi)
                    )
                for i in range(len(entries) - 1, -1, -1):
                    child_hi = seps[i + 1] if i + 1 < len(seps) else hi
                    stack.append((entries[i][1], depth + 1, seps[i], child_hi))
            if lo is not None and first != lo:
                raise AssertionError(
                    "node %d opens with %r, its separator is %r" % (node, first, lo)
                )
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
        key_index = self._key_index
        self._memo.check(disk, self.file_id, lambda no: key_index if is_leaf[no] else 0)
