"""The record-at-a-time B-tree cursor the batched operators are tested against.

It lived in ``repro.storage.btree`` until no operator used it any more;
the differential tests in ``tests/query/test_join.py`` and the cursor
tests in ``tests/storage/test_btree.py`` import it from here.
"""

import bisect
from typing import Any, Optional, Tuple

from repro.storage.btree import BTreeFile
from repro.storage.page import Page


class BTreeCursor:
    """Forward cursor over leaf records, ordered by key.

    ``seek(key)`` positions at the first record with key >= ``key``.  When
    the target is on the current leaf the cursor stays there (no index
    descent); otherwise it descends from the root.  This is exactly the
    access pattern of a merge join whose outer is sorted.

    No operator uses the cursor: it is the literal record-at-a-time
    reference — one pool touch per ``seek`` / ``current`` / ``advance``
    step — that :meth:`BTreeFile.merge_walk` and
    :meth:`BTreeFile.probe_many` must match counter for counter
    (``tests/query/test_join.py`` drives each against it on twin pools).
    """

    __slots__ = ("tree", "_page_no", "_slot")

    def __init__(self, tree: BTreeFile) -> None:
        self.tree = tree
        self._page_no: Optional[int] = None
        self._slot = 0

    def _touch(self, page_no: int) -> Page:
        """One pool touch of ``page_no``: always a real fetch, so the
        operators' self-accounted lease touches are checked against the
        pool's own accounting."""
        return self.tree.pool.fetch(self.tree._page_ids()[page_no])

    def seek(self, key: Any) -> None:
        """Position at the first record with key >= ``key``.

        If the target is on the already-resident current leaf, only that
        (buffered) page is touched; otherwise a root-to-leaf descent reads
        exactly the target leaf plus the (hot) index pages above it.
        Peeking at sibling leaves to avoid a descent would *cost* a page
        read, not save one, so it is never done.
        """
        if self._page_no is not None:
            page = self._touch(self._page_no)
            keys = self.tree._leaf_keys(page)
            if keys and keys[0] <= key <= keys[-1]:
                self._slot = bisect.bisect_left(keys, key)
                return
        page_no, slot = self.tree._find_leaf_slot(key)
        self._page_no, self._slot = page_no, slot
        self._skip_to_valid()

    def current(self) -> Optional[Tuple[Any, ...]]:
        """Record under the cursor, or None when exhausted."""
        if self._page_no is None:
            return None
        page = self._touch(self._page_no)
        records = page.records
        if records is None:
            records = page._materialize()
        if self._slot >= len(records):
            return None
        return records[self._slot]

    def advance(self) -> None:
        """Move to the next record in key order."""
        if self._page_no is None:
            return
        self._slot += 1
        self._skip_to_valid()

    def _skip_to_valid(self) -> None:
        while self._page_no is not None:
            page = self._touch(self._page_no)
            records = page.records
            if records is None:
                records = page._materialize()
            if self._slot < len(records):
                return
            self._page_no = self.tree._next(self._page_no)
            self._slot = 0
