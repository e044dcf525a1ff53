"""LRU buffer pool.

All access methods go through the buffer pool; only its misses and
write-backs reach the :class:`~repro.storage.disk.DiskManager` and are
counted as I/O.  The paper used a main-memory buffer of 100 INGRES data
pages, which is the default here (see
:data:`repro.workload.params.WorkloadParams.buffer_pages`).

The pool is a straightforward LRU:

* :meth:`fetch` returns a frame's page, moving it to the MRU end;
* a miss evicts the least recently used frame, writing it back first if
  dirty (one write), and reads the incoming page into the victim's
  frame object;
* :meth:`new_page` installs a freshly allocated page as a dirty frame
  without a read — appending to a temporary relation costs only the
  eventual write-back, as in a real engine;
* :meth:`flush_all` force-writes dirty frames (the driver calls it between
  measured queries only when a strategy semantically requires it; normally
  dirty pages age out naturally, which matches how the paper's update
  costs behave).

Epoch-guarded leases
--------------------

The simulator's measured numbers depend on the exact order of pool
operations (evictions are decided by LRU order, and the trace digests
pin the physical access stream bit for bit), so hot paths cannot simply
skip pool traffic.  What they *can* do is recognise the one re-touch
that is provably free: re-fetching the page that was touched last.  If
no pool operation happened in between, the page is still resident and
still MRU, so the old code's ``fetch`` would count a hit and perform a
no-op ``move_to_end`` — no eviction, no reordering, no I/O can occur.

:attr:`epoch` makes "no pool operation happened in between" checkable in
O(1): every touch (hit or miss), page installation, invalidation and
clear bumps it.  A caller that remembers ``(frame, epoch)`` after a
fetch may, while ``pool.epoch`` is unchanged, account further touches of
that same page itself (``stats.hits += 1; pool.epoch += 1``) and reuse
the frame directly.  The counters and the eviction behaviour remain
bit-identical to calling :meth:`fetch`; only the Python-level overhead
disappears.  The B-tree probe paths (``probe_many``, ``update_field``,
``merge_walk``) and the heap's append path all use this pattern.

A lease holder may also *defer* its self-accounted touches — count them
locally and add them to ``stats.hits`` and ``epoch`` in one step — under
one rule: flush the deferred hits before any real pool operation of your
own, before advancing a lazy input, and on the way out.  Touches are
only ever deferred while ``epoch`` still equals the holder's own last
real operation, so no other party's lease can be valid at the same time;
whoever touches the pool next does a real fetch, which breaks this lease
and makes the holder flush before its own next touch.  Callers whose
input is a materialised list (``HeapFile.insert_many(list)``, one batch
of ``merge_walk``) therefore account a whole run at once; a lazy iterable
cannot be batched, because any pull from it may touch the pool.

A frame is valid only under its lease.  Eviction recycles the victim's
:class:`_Frame` for the page that replaces it, so a frame reference
kept past a change of ``epoch`` may already hold another page; check the
epoch before touching ``frame.page`` or ``frame.dirty``.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter_ns
from typing import Dict, Iterator, Tuple

from repro.obs import spans as _spans
from repro.storage.disk import DiskManager
from repro.storage.page import Page, PageId

DEFAULT_BUFFER_PAGES = 100


class _Frame:
    """One buffer slot: a page and its dirty bit, reused across evictions."""

    __slots__ = ("page", "dirty")

    page: Page

    def __init__(self) -> None:
        self.dirty = False


class BufferStats:
    """Hit/miss/eviction counters for the pool.

    A measured interval is zero-then-read: :meth:`reset` at its start,
    :meth:`as_dict` once at its end (see
    :func:`repro.workload.driver.run_sequence`).
    """

    __slots__ = ("hits", "misses", "evictions", "dirty_evictions")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (a detached copy)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
        }


class BufferPool:
    """Fixed-capacity page cache.

    ``policy`` selects the replacement victim:

    * ``"lru"``   — least recently used (the default; INGRES-era engines
      were LRU-ish and the paper's numbers assume recency locality);
    * ``"clock"`` — second-chance clock, provided for the replacement-
      policy ablation (the reproduction's conclusions should not hinge
      on the exact policy).
    """

    POLICIES = ("lru", "clock")

    def __init__(
        self,
        disk: DiskManager,
        capacity: int = DEFAULT_BUFFER_PAGES,
        policy: str = "lru",
    ) -> None:
        if capacity <= 0:
            raise ValueError("buffer capacity must be positive, got %d" % capacity)
        if policy not in self.POLICIES:
            raise ValueError(
                "unknown replacement policy %r (choose from %r)"
                % (policy, self.POLICIES)
            )
        self.disk = disk
        self.capacity = capacity
        self.policy = policy
        self._is_lru = policy == "lru"
        self._frames: "OrderedDict[PageId, _Frame]" = OrderedDict()
        self._referenced: Dict[PageId, bool] = {}
        self._clock_ring: list = []
        self._clock_hand = 0
        self.stats = BufferStats()
        #: Bumped on every operation that touches or changes pool state
        #: (fetches, installs, invalidations, clears — including the
        #: self-accounted lease re-touches).  A cached ``(frame, epoch)``
        #: pair is reusable exactly while ``epoch`` is unchanged; see the
        #: module docstring.
        self.epoch = 0

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def fetch(self, page_id: PageId) -> Page:
        """Return the page for ``page_id``, reading it on a miss."""
        # Hottest path in the whole simulator (tens of millions of calls
        # per sweep) — the hit branch is inlined; a miss goes to _admit().
        frames = self._frames
        frame = frames.get(page_id)
        self.epoch += 1
        if frame is not None:
            self.stats.hits += 1
            if self._is_lru:
                frames.move_to_end(page_id)
            else:
                self._referenced[page_id] = True
            return frame.page
        return self._admit(page_id).page

    def fetch_frame(self, page_id: PageId) -> _Frame:
        """:meth:`fetch` returning the frame itself, for lease reuse.

        Identical accounting to :meth:`fetch`.  The returned frame plus
        the post-call :attr:`epoch` form a lease: while ``epoch`` is
        unchanged the caller may self-account re-touches of this page
        (``stats.hits += 1; epoch += 1``) and read ``frame.page`` /
        set ``frame.dirty`` directly.
        """
        frames = self._frames
        frame = frames.get(page_id)
        self.epoch += 1
        if frame is not None:
            self.stats.hits += 1
            if self._is_lru:
                frames.move_to_end(page_id)
            else:
                self._referenced[page_id] = True
            return frame
        return self._admit(page_id)

    def writable(self, page_id: PageId) -> Page:
        """Fetch ``page_id`` with write intent (copy-on-write aware).

        Identical accounting to :meth:`fetch`, but if the page is frozen
        (shared with a database snapshot) it is first swapped for a
        private copy so the caller's mutation cannot leak into other
        clones of the snapshot.  The copy itself is not charged as I/O —
        a real engine modifies the buffered frame in place; page sharing
        is an artifact of the simulator keeping live objects on "disk".
        """
        page = self.fetch(page_id)
        if page.frozen:
            page = self.disk.cow_page(page_id)
            self._frames[page_id].page = page
        return page

    def replay_writable(self, page_id: PageId, touches: int) -> Page:
        """Re-touch a just-written page ``touches`` times, write-intent.

        Collapses a run of re-touches that the slow path would perform on
        a page that is already MRU — e.g. ``update_field``'s second
        root-to-leaf descent, which re-fetches the same index pages and
        leaf in the same order with no other pool operation in between,
        leaving the LRU order and residency exactly as they were.  Counts
        ``touches`` logical hits (bit-identical to the slow path's
        counters: every re-touch of a resident page is a hit), applies
        copy-on-write if the page is frozen, and marks the frame dirty.

        The caller must guarantee the collapsed touches would all have
        been hits of already-resident pages in unchanged LRU order; the
        B-tree guards its call sites accordingly.
        """
        frame = self._frames[page_id]
        self.stats.hits += touches
        self.epoch += touches
        page = frame.page
        if page.frozen:
            page = self.disk.cow_page(page_id)
            frame.page = page
        frame.dirty = True
        return page

    def frame_of(self, page_id: PageId) -> _Frame:
        """The resident frame for ``page_id``, WITHOUT accounting a touch.

        Only for establishing a lease immediately after an operation that
        already touched ``page_id`` (e.g. :meth:`new_page`): pair the
        returned frame with the current :attr:`epoch`.  Raises ``KeyError``
        if the page is not resident.
        """
        return self._frames[page_id]

    def new_page(self, file_id: int) -> Page:
        """Allocate a fresh page and install it dirty (no read charged)."""
        frame = self._free_frame()
        self.epoch += 1
        frame.page = page = self.disk.allocate_page(file_id)
        frame.dirty = True
        self._frames[page.page_id] = frame
        if not self._is_lru:
            self._referenced[page.page_id] = True
            self._clock_ring.append(page.page_id)
        return page

    def mark_dirty(self, page_id: PageId) -> None:
        """Record that a buffered page was modified.

        The page must be resident; modifying an unbuffered page is a
        protocol violation that would silently lose the write-back charge.
        """
        frame = self._frames.get(page_id)
        if frame is None:
            raise KeyError("mark_dirty on non-resident page %s" % (page_id,))
        frame.dirty = True

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def flush_page(self, page_id: PageId) -> None:
        """Write back one page if dirty (keeps it resident)."""
        frame = self._frames.get(page_id)
        if frame is not None and frame.dirty:
            self.disk.write_page(frame.page)
            frame.dirty = False

    def flush_all(self) -> None:
        """Write back every dirty frame (keeps them resident)."""
        for frame in self._frames.values():
            if frame.dirty:
                self.disk.write_page(frame.page)
                frame.dirty = False

    def invalidate_page(self, page_id: PageId) -> None:
        """Drop ``page_id``'s frame (if resident) without write-back.

        Used when a page is deallocated; its contents are garbage, so a
        write-back would charge I/O for data nobody can read again.
        """
        self.epoch += 1
        if self._frames.pop(page_id, None) is not None:
            self._referenced.pop(page_id, None)

    def invalidate_file(self, file_id: int, flush: bool = False) -> None:
        """Drop every frame belonging to ``file_id``.

        Used when a temporary relation is destroyed: its dirty pages are
        discarded *without* write-back unless ``flush`` is requested,
        matching the free disposal of scratch data.
        """
        self.epoch += 1
        victims = [pid for pid in self._frames if pid.file_id == file_id]
        for pid in victims:
            frame = self._frames.pop(pid)
            self._referenced.pop(pid, None)
            if flush and frame.dirty:
                self.disk.write_page(frame.page)

    def clear(self, flush: bool = True) -> None:
        """Empty the pool (cold cache), optionally flushing dirty frames."""
        self.epoch += 1
        if flush:
            self.flush_all()
        self._frames.clear()
        self._referenced.clear()
        self._clock_ring = []
        self._clock_hand = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def is_resident(self, page_id: PageId) -> bool:
        return page_id in self._frames

    def is_dirty(self, page_id: PageId) -> bool:
        frame = self._frames.get(page_id)
        return frame is not None and frame.dirty

    def resident_pages(self) -> Iterator[PageId]:
        return iter(list(self._frames.keys()))

    def check_invariants(self) -> None:
        """Verify frame-table and replacement bookkeeping (debug hook).

        Capacity is a hard bound, every frame is keyed by its page's own
        id, and the replacement-policy side structures agree with the
        frame table: LRU keeps them empty, clock keeps every resident
        page in the ring (stale ring entries for evicted pages are legal
        — the sweep filters them lazily) and never tracks a reference
        bit for a non-resident page.
        """
        if len(self._frames) > self.capacity:
            raise AssertionError(
                "pool holds %d frames over capacity %d"
                % (len(self._frames), self.capacity)
            )
        for page_id, frame in self._frames.items():
            if frame.page.page_id != page_id:
                raise AssertionError(
                    "frame keyed %s holds page %s" % (page_id, frame.page.page_id)
                )
        if self._is_lru:
            if self._referenced or self._clock_ring:
                raise AssertionError("LRU pool carries clock-policy state")
        else:
            ring = set(self._clock_ring)
            for page_id in self._frames:
                if page_id not in ring:
                    raise AssertionError(
                        "resident page %s missing from the clock ring" % (page_id,)
                    )
            for page_id in self._referenced:
                if page_id not in self._frames:
                    raise AssertionError(
                        "reference bit tracked for non-resident %s" % (page_id,)
                    )

    def __len__(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit(self, page_id: PageId) -> _Frame:
        """The miss path of :meth:`fetch` / :meth:`fetch_frame`: count the
        miss, evict if full, read the page and install it as MRU."""
        self.stats.misses += 1
        # The span covers the miss only: the hit branches stay free of
        # any profiler test (they run tens of millions of times).
        prof = _spans._PROFILER
        t0 = perf_counter_ns() if prof is not None else 0
        frame = self._free_frame()
        frame.page = self.disk.read_page(page_id)
        self._frames[page_id] = frame
        if not self._is_lru:
            self._referenced[page_id] = True
            self._clock_ring.append(page_id)
        if prof is not None:
            prof.add("pool.fetch_miss", perf_counter_ns() - t0)
        return frame

    def _free_frame(self) -> _Frame:
        """A clean frame for an incoming page: a new one while the pool is
        filling, else the policy's victim, evicted (written back first if
        dirty) and handed over for reuse."""
        frames = self._frames
        if len(frames) < self.capacity:
            return _Frame()
        if self._is_lru:
            page_id, frame = frames.popitem(last=False)
        else:
            page_id, frame = self._clock_victim()
        self.stats.evictions += 1
        if frame.dirty:
            self.stats.dirty_evictions += 1
            try:
                self.disk.write_page(frame.page)
            except BaseException:
                if self._is_lru:  # still resident, dirty and first in line
                    frames[page_id] = frame
                    frames.move_to_end(page_id, last=False)
                raise
            frame.dirty = False
        if not self._is_lru:
            del frames[page_id]
            self._referenced.pop(page_id, None)
            self._clock_ring.pop(self._clock_hand)
        return frame

    def _clock_victim(self) -> Tuple[PageId, _Frame]:
        """Second-chance sweep: clear reference bits until an unreferenced
        frame comes under the hand (within one turn), and leave it there."""
        ring = self._clock_ring = [p for p in self._clock_ring if p in self._frames]
        referenced = self._referenced
        while True:
            self._clock_hand %= len(ring)
            page_id = ring[self._clock_hand]
            if not referenced.get(page_id, False):
                return page_id, self._frames[page_id]
            referenced[page_id] = False
            self._clock_hand += 1
