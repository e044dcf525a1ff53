"""Simulated disk with per-file page allocation and I/O accounting.

The :class:`DiskManager` is the bottom of the storage stack: everything the
buffer pool reads from or writes to it is counted, and those counts are the
performance yardstick of the whole study (the paper measures average I/O
traffic per query using INGRES's I/O counters; :class:`IoSnapshot` plays
the role of those counters).

Pages live in memory — this is a simulator — but the interface is the one a
real disk manager would expose: create/drop files, allocate pages, read and
write whole pages by :class:`PageId`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import FileNotFoundError_, PageNotFoundError
from repro.fault import plan as _fault
from repro.storage.page import DEFAULT_PAGE_SIZE, Page, PageId


@dataclass(frozen=True)
class IoSnapshot:
    """Immutable copy of the disk's I/O counters.

    Subtract two snapshots to get the traffic of an interval::

        before = disk.snapshot()
        ...work...
        delta = disk.snapshot() - before
        print(delta.total)
    """

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def __sub__(self, other: "IoSnapshot") -> "IoSnapshot":
        return IoSnapshot(self.reads - other.reads, self.writes - other.writes)

    def __add__(self, other: "IoSnapshot") -> "IoSnapshot":
        return IoSnapshot(self.reads + other.reads, self.writes + other.writes)


class DiskManager:
    """Holds files of pages and counts every page read and write.

    The counters are global.  I/O is attributed to a plan phase (e.g.
    the ParCost/ChildCost breakdown of Figure 5) by deltas of these
    counters in :class:`~repro.core.measure.CostMeter`, and to pages and
    files by :attr:`io_hook` observers such as the I/O tracer.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self._files: Dict[int, List[Page]] = {}
        self._file_names: Dict[int, str] = {}
        self._next_file_id = 0
        self.reads = 0
        self.writes = 0
        #: Per-file ``PageId`` list cache (see :meth:`page_ids`).
        self._page_id_cache: Dict[int, List[PageId]] = {}
        #: Optional observer invoked as ``hook(kind, page_id)`` with kind in
        #: {"read", "write"}; used by tests and cost-attribution tools.
        self.io_hook: Optional[Callable[[str, PageId], None]] = None

    # ------------------------------------------------------------------
    # file management
    # ------------------------------------------------------------------
    def create_file(self, name: str = "") -> int:
        """Create an empty file, returning its file id."""
        file_id = self._next_file_id
        self._next_file_id += 1
        self._files[file_id] = []
        self._file_names[file_id] = name or ("file-%d" % file_id)
        return file_id

    def drop_file(self, file_id: int) -> None:
        """Remove a file and its pages."""
        self._require_file(file_id)
        del self._files[file_id]
        del self._file_names[file_id]
        self._page_id_cache.pop(file_id, None)

    def truncate_file(self, file_id: int) -> None:
        """Discard every page of ``file_id``, keeping the file itself."""
        self.shrink_file(file_id, 0)

    def shrink_file(self, file_id: int, num_pages: int) -> None:
        """Drop every page past the first ``num_pages`` of ``file_id``.

        Deallocation is metadata work, like :meth:`allocate_page`; no I/O
        is charged.
        """
        self._require_file(file_id)
        del self._files[file_id][num_pages:]
        ids = self._page_id_cache.get(file_id)
        if ids is not None:
            del ids[num_pages:]

    def file_exists(self, file_id: int) -> bool:
        return file_id in self._files

    def file_name(self, file_id: int) -> str:
        self._require_file(file_id)
        return self._file_names[file_id]

    def num_pages(self, file_id: int) -> int:
        self._require_file(file_id)
        return len(self._files[file_id])

    def total_pages(self) -> int:
        """Number of allocated pages across all live files."""
        return sum(len(pages) for pages in self._files.values())

    def file_ids(self) -> Iterator[int]:
        return iter(self._files.keys())

    def page_ids(self, file_id: int) -> List[PageId]:
        """The ``PageId`` list of ``file_id`` (cached; do NOT mutate).

        A file's page at index ``i`` is invariantly addressed by
        ``PageId(file_id, i)`` — allocation only ever appends, and
        :meth:`cow_page` swaps the page *object* while keeping its
        address — so the list depends only on the file's length, and
        :meth:`allocate_page` and :meth:`shrink_file` keep it in step in
        place: an access method may hold it for the life of the file.
        """
        ids = self._page_id_cache.get(file_id)
        if ids is None:
            self._require_file(file_id)
            ids = [PageId(file_id, i) for i in range(len(self._files[file_id]))]
            self._page_id_cache[file_id] = ids
        return ids

    # ------------------------------------------------------------------
    # page I/O
    # ------------------------------------------------------------------
    def allocate_page(self, file_id: int) -> Page:
        """Append a fresh page to ``file_id`` (no I/O is charged).

        Allocation itself is metadata work; the page is charged as a write
        when the buffer pool flushes it.
        """
        self._require_file(file_id)
        pages = self._files[file_id]
        page = Page(PageId(file_id, len(pages)), self.page_size)
        pages.append(page)
        ids = self._page_id_cache.get(file_id)
        if ids is not None:
            ids.append(page.page_id)
        return page

    def read_page(self, page_id: PageId) -> Page:
        """Fetch a page, counting one read.

        Under an active fault plan a read may raise
        :class:`~repro.errors.FaultInjected` — either a transient I/O
        error (``disk.read``) or a detected torn/corrupt page
        (``disk.torn``, the simulator's stand-in for a page-checksum
        failure).  Nothing is charged or mutated when that happens; the
        sweep layer retries the whole point.
        """
        if _fault._PLAN is not None:
            _fault.hit("disk.read")
            _fault.hit("disk.torn")
        file_id, page_no = page_id
        pages = self._files.get(file_id)
        if pages is None or not 0 <= page_no < len(pages):
            return self._get(page_id)  # raises the specific error
        self.reads += 1
        if self.io_hook is not None:
            self.io_hook("read", page_id)
        return pages[page_no]

    def write_page(self, page: Page) -> None:
        """Persist a page, counting one write.

        May raise :class:`~repro.errors.FaultInjected` (``disk.write``)
        under an active fault plan, before any accounting happens.
        """
        if _fault._PLAN is not None:
            _fault.hit("disk.write")
        # The page object *is* the stored page (in-memory simulation), so
        # there is nothing to copy; only the accounting matters.
        self._require_file(page.page_id.file_id)
        self.writes += 1
        if self.io_hook is not None:
            self.io_hook("write", page.page_id)

    def peek_page(self, page_id: PageId) -> Page:
        """Fetch a page WITHOUT counting I/O.

        For tests and invariant checks only — never used on a query path.
        """
        return self._get(page_id)

    def __getstate__(self) -> Dict[str, object]:
        # The PageId cache is pure derived state; drop it so pickles (and
        # snapshot clones) stay lean and revive with a cold cache.
        state = self.__dict__.copy()
        state["_page_id_cache"] = {}
        return state

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Seal every page for snapshot sharing (see :meth:`clone`)."""
        for pages in self._files.values():
            for page in pages:
                page.freeze()

    def clone(self) -> "DiskManager":
        """A private copy of this frozen disk sharing its pages.

        The one place a snapshot attach touches page lists: each file's
        list is duplicated with a C-level ``list(pages)`` — no per-page
        Python work — and the :class:`Page` objects stay shared until
        the clone's write path copies one (:meth:`cow_page`).  Every
        other field is deep-copied generically, so state added to this
        class later is private to each clone by default.  The clone
        starts with zeroed I/O counters and no ``io_hook``.
        """
        state = self.__getstate__()
        files = state.pop("_files")
        state["io_hook"] = None
        dup = DiskManager.__new__(DiskManager)
        dup.__dict__ = copy.deepcopy(state)
        dup._files = {file_id: list(pages) for file_id, pages in files.items()}
        dup.reset_counters()
        return dup

    def cow_page(self, page_id: PageId) -> Page:
        """Replace a frozen, snapshot-shared page with a private copy.

        Called by the buffer pool's write path the first time a page is
        dirtied after a snapshot attach.  No I/O is charged: a real engine
        would modify the already-buffered frame in place — page sharing
        exists only because the simulator's disk holds live objects.
        """
        page = self._get(page_id)
        if not page.frozen:
            return page
        dup = page.copy()
        self._files[page_id.file_id][page_id.page_no] = dup
        return dup

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def snapshot(self) -> IoSnapshot:
        """Copy the global I/O counters."""
        return IoSnapshot(self.reads, self.writes)

    def reset_counters(self) -> None:
        """Zero the I/O counters."""
        self.reads = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_file(self, file_id: int) -> None:
        if file_id not in self._files:
            raise FileNotFoundError_("no such file id: %r" % (file_id,))

    def _get(self, page_id: PageId) -> Page:
        self._require_file(page_id.file_id)
        pages = self._files[page_id.file_id]
        if not 0 <= page_id.page_no < len(pages):
            raise PageNotFoundError("no such page: %s" % (page_id,))
        return pages[page_id.page_no]
