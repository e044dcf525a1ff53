"""Temporary relations.

The breadth-first strategies "collect the OID's from qualifying tuples of
group into a temporary relation temp" (Section 3.1).  A
:class:`TempRelation` wraps a heap file with two lifecycle refinements:

* :meth:`seal` — called when the producer is done filling the temporary.
  Dirty pages are force-written (counted), modelling INGRES materialising
  the temporary to disk before the next query step consumes it.  The
  frames stay resident, so an immediately following consumer of a *small*
  temporary re-reads it from the buffer for free — which is why BFS at
  NumTop = 1 is only "slightly worse" than DFS in Figure 3.
* :meth:`drop` — scratch data is discarded without write-back.

Each temporary is dropped by the step that consumes it
(:func:`~repro.query.sort.external_sort` drops its source,
:func:`~repro.query.join.join_sorted_temp` its sorted input); leaking
them would slowly grow the buffer pool's working set and distort
measurements.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Tuple

from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.page import PageId
from repro.storage.record import Schema

_temp_counter = 0


def _next_temp_name(prefix: str) -> str:
    global _temp_counter
    _temp_counter += 1
    return "%s-%d" % (prefix, _temp_counter)


class TempRelation:
    """A scratch heap with seal/drop lifecycle."""

    def __init__(self, pool: BufferPool, schema: Schema, prefix: str = "temp") -> None:
        self.heap = HeapFile(pool, schema, _next_temp_name(prefix))
        self.pool = pool
        self.schema = schema
        self._sealed = False
        self._dropped = False

    # ------------------------------------------------------------------
    def insert_many(self, records: Iterable[Tuple[Any, ...]]) -> int:
        if self._sealed:
            raise RuntimeError("insert into sealed temporary %r" % self.heap.name)
        return self.heap.insert_many(records)

    def seal(self) -> "TempRelation":
        """Force-write the temporary; further inserts are rejected."""
        if not self._sealed:
            for page_no in range(self.heap.num_pages):
                self.pool.flush_page(PageId(self.heap.file_id, page_no))
            self._sealed = True
        return self

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        return self.heap.scan()

    def scan_pages(self):
        """Page-at-a-time scan (see :meth:`HeapFile.scan_pages`)."""
        return self.heap.scan_pages()

    def drop(self) -> None:
        """Discard the temporary (no write-back of dirty scratch pages)."""
        if not self._dropped:
            self.heap.drop()
            self._dropped = True


def make_temp(
    pool: BufferPool,
    schema: Schema,
    records: Optional[Iterable[Tuple[Any, ...]]] = None,
    prefix: str = "temp",
    seal: bool = True,
) -> TempRelation:
    """Create a temporary, optionally filling it from ``records`` and sealing."""
    temp = TempRelation(pool, schema, prefix)
    if records is not None:
        temp.insert_many(records)
        if seal:
            temp.seal()
    return temp
