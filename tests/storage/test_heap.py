"""Heap files: append, scan, update, lifecycle, I/O behaviour."""

import copy

import pytest

from repro.errors import RecordError, StorageError
from repro.storage.catalog import Catalog
from repro.storage.heap import HeapFile, RecordId
from repro.storage.page import PageId
from repro.storage.record import IntField, Schema


@pytest.fixture
def heap(catalog, simple_schema):
    return HeapFile(catalog.pool, simple_schema, "h")


def rec(i: int):
    return (i, i * 10, "tag%d" % i)


class TestInsertScan:
    def test_roundtrip(self, heap):
        rid = heap.insert(rec(1))
        assert heap.fetch(rid) == rec(1)

    def test_scan_preserves_order(self, heap):
        for i in range(50):
            heap.insert(rec(i))
        assert list(heap.scan()) == [rec(i) for i in range(50)]
        assert heap.num_records == 50

    def test_fills_pages_sequentially(self, heap):
        for i in range(200):
            heap.insert(rec(i))
        assert heap.num_pages > 1
        # Records per page should be near capacity for ~20-byte records.
        assert heap.num_pages < 10

    def test_insert_validates(self, heap):
        from repro.errors import RecordError

        with pytest.raises(RecordError):
            heap.insert((1, 2))

    def test_insert_many(self, heap):
        assert heap.insert_many(rec(i) for i in range(7)) == 7
        assert len(heap) == 7

    def test_scan_with_rids(self, heap):
        heap.insert(rec(0))
        heap.insert(rec(1))
        pairs = list(heap.scan_with_rids())
        assert pairs[0][0] == RecordId(0, 0)
        assert pairs[1][1] == rec(1)

    def test_select(self, heap):
        for i in range(10):
            heap.insert(rec(i))
        out = list(heap.select(lambda r: r[0] % 2 == 0))
        assert [r[0] for r in out] == [0, 2, 4, 6, 8]


class TestUpdate:
    def test_update_in_place(self, heap):
        rid = heap.insert(rec(1))
        heap.update(rid, (1, 99, "tag1"))
        assert heap.fetch(rid)[1] == 99

    def test_update_bad_rid(self, heap):
        heap.insert(rec(1))
        with pytest.raises(StorageError):
            heap.update(RecordId(0, 5), rec(1))

    def test_fetch_bad_rid(self, heap):
        heap.insert(rec(1))
        with pytest.raises(StorageError):
            heap.fetch(RecordId(0, 5))


class TestLifecycle:
    def test_truncate(self, heap):
        for i in range(100):
            heap.insert(rec(i))
        heap.truncate()
        assert heap.num_records == 0
        assert heap.num_pages == 0
        assert list(heap.scan()) == []
        heap.insert(rec(1))  # still usable
        assert len(heap) == 1

    def test_drop_discards_dirty_pages_free(self, catalog, simple_schema):
        before = catalog.disk.writes
        heap = HeapFile(catalog.pool, simple_schema, "scratch")
        for i in range(100):
            heap.insert(rec(i))
        heap.drop()
        assert catalog.disk.writes == before  # scratch data never written


class TestIoAccounting:
    def test_inserts_cost_no_reads_on_fresh_pages(self, catalog, simple_schema):
        heap = HeapFile(catalog.pool, simple_schema, "io")
        catalog.disk.reset_counters()
        for i in range(30):
            heap.insert(rec(i))
        assert catalog.disk.reads == 0  # tail page stays buffered

    def test_scan_reads_each_page_once_when_cold(self, catalog, simple_schema):
        heap = HeapFile(catalog.pool, simple_schema, "io2")
        for i in range(500):
            heap.insert(rec(i))
        catalog.pool.clear(flush=True)
        catalog.disk.reset_counters()
        list(heap.scan())
        assert catalog.disk.reads == heap.num_pages


# ----------------------------------------------------------------------
# insert_many(list) against one insert() per record, on twin heaps
# ----------------------------------------------------------------------
OID_SCHEMA = Schema([IntField("OID")])
PER_PAGE = 14  # OID records to a 128-byte page


def _twin(template=None):
    """A 4-frame catalog with an OID heap ``h`` and a scratch heap ``other``
    (or a private clone of the frozen ``template`` catalog)."""
    if template is not None:
        catalog = copy.deepcopy(template, {id(template.disk): template.disk.clone()})
    else:
        catalog = Catalog(buffer_pages=4, page_size=128)
        catalog.create_heap("h", OID_SCHEMA)
        catalog.create_heap("other", OID_SCHEMA)
    return catalog, catalog.get("h")


def _ledger(catalog, heap):
    """Everything the two insert paths must leave identical."""
    pool, disk = catalog.pool, catalog.disk
    pages = [disk.peek_page(pid) for pid in disk.page_ids(heap.file_id)]
    return {
        "stats": pool.stats.as_dict(),
        "io": (disk.reads, disk.writes),
        "lru": list(pool._frames),
        "dirty": [frame.dirty for frame in pool._frames.values()],
        "pages": [
            (len(p), p.used_bytes, p.free_bytes, p.version, p.frozen, list(p._sizes))
            for p in pages
        ],
        "records": [record for p in pages for record in p.record_batch()],
        "num_records": heap.num_records,
        "tail": heap._tail_page_no,
        "tail_last": pool.last.page is not None
        and pool.last.page.page_id == PageId(heap.file_id, heap._tail_page_no),
    }


def _run(steps, template=None):
    """Apply ``steps`` to twin heaps; batches go through ``insert_many(list)``
    on one and one ``insert()`` per record on the other.  Returns the two
    ledgers (compared after every step as well)."""
    batched, literal = _twin(template), _twin(template)
    for step in steps:
        outcomes = []
        for (catalog, heap), as_list in ((batched, True), (literal, False)):
            try:
                if callable(step):
                    step(catalog)
                elif as_list:
                    heap.insert_many(list(step))
                else:
                    for record in step:
                        heap.insert(record)
                outcomes.append(None)
            except (RecordError, TypeError) as exc:  # TypeError: no len()
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        assert _ledger(*batched) == _ledger(*literal)
    return _ledger(*batched)


def _oids(start, count):
    return [(k,) for k in range(start, start + count)]


def _evict_tail(catalog):
    """Foreign pool traffic: enough fresh pages to push ``h``'s tail out."""
    catalog.get("other").insert_many(_oids(0, PER_PAGE * 5))


class TestInsertManyMatchesInsert:
    def test_batch_spanning_several_pages(self):
        ledger = _run([_oids(0, 60)])
        assert [page[0] for page in ledger["pages"]] == [PER_PAGE] * 4 + [4]
        assert ledger["tail_last"]

    def test_small_batches_share_the_leased_tail(self):
        _run([_oids(0, 5), _oids(5, 5), [], _oids(10, 4), _oids(14, 1), _oids(15, 40)])

    def test_batch_ending_exactly_at_a_page_boundary(self):
        ledger = _run([_oids(0, PER_PAGE), _oids(20, PER_PAGE), _oids(40, 1)])
        assert [page[0] for page in ledger["pages"]] == [PER_PAGE, PER_PAGE, 1]

    def test_tail_evicted_between_calls(self):
        ledger = _run([_oids(0, 20), _evict_tail, _oids(20, 30), _evict_tail, _oids(50, 3)])
        assert ledger["stats"]["misses"] > 0  # the tail really was re-read

    def test_frozen_snapshot_clone_tail(self):
        template, heap = _twin()
        heap.insert_many(_oids(0, 20))
        template.pool.clear(flush=True)
        template.disk.freeze()
        ledger = _run([_oids(20, 4), _oids(24, 30)], template)
        assert [page[4] for page in ledger["pages"]] == [True, False, False, False]
        # The shared template page is untouched by either clone.
        assert len(template.disk.peek_page(PageId(heap.file_id, 1))) == 20 - PER_PAGE

    def test_full_frozen_tail_is_still_copied_on_its_touch(self):
        template, heap = _twin()
        heap.insert_many(_oids(0, PER_PAGE))
        template.pool.clear(flush=True)
        template.disk.freeze()
        ledger = _run([_oids(20, 2)], template)
        assert [page[4] for page in ledger["pages"]] == [False, False]

    @pytest.mark.parametrize("bad", [(7, 8), ("7",), (True,), 7])
    def test_bad_record_in_the_middle(self, bad):
        batch = _oids(0, 25) + [bad] + _oids(26, 25)
        ledger = _run([_oids(100, 3), batch, _oids(200, 3)])
        assert ledger["num_records"] == 3 + 25 + 3

    def test_lazy_iterable_whose_last_pull_touches_the_pool(self):
        # The generator fetches a page *after* its last record: the tail
        # is then no longer the page touched last (the next insert
        # re-fetches it, reordering the LRU).
        def records(catalog):
            yield from _oids(0, 5)
            catalog.pool.fetch(PageId(catalog.get("other").file_id, 0))

        ledgers = []
        for lazy in (True, False):
            catalog, heap = _twin()
            catalog.get("other").insert((0,))
            heap.insert((50,))
            if lazy:
                heap.insert_many(records(catalog))
            else:
                for record in records(catalog):
                    heap.insert(record)
            heap.insert((99,))
            ledgers.append(_ledger(catalog, heap))
        assert ledgers[0] == ledgers[1]


def test_stale_lease_on_a_reused_frame():
    # The pool hands an evicted tail's frame to the page that replaces
    # it; the heap's writes must not reach that page through the frame —
    # also when a foreign fetch re-admits the tail into another frame and
    # so makes it the page touched last again.
    records = [(1,), (2,)]
    writes = {
        "insert": lambda heap: [heap.insert(record) for record in records],
        "list": lambda heap: heap.insert_many(list(records)),
        "generator": lambda heap: heap.insert_many(r for r in records),
    }
    for readmit in (False, True):
        for form, write in writes.items():
            catalog, heap = _twin()
            other = catalog.get("other")
            other.insert_many(_oids(0, PER_PAGE * 4))  # fills all four frames
            heap.insert_many([(0,)])  # LRU -> MRU: other 1, 2, 3, h 0
            tail = PageId(heap.file_id, 0)
            old_frame = catalog.pool.last  # h 0 was touched last
            twin = copy.deepcopy(catalog)
            for cat in (catalog, twin):
                for page_no in (1, 2, 3, 0):  # three hits, then a miss evicting h 0
                    cat.pool.fetch(PageId(other.file_id, page_no))
                if readmit:
                    cat.pool.fetch(tail)  # a miss evicting other 1
            took_over = old_frame.page
            assert took_over.page_id == PageId(other.file_id, 0)
            if readmit:  # h 0 is the page touched last, in another frame
                assert catalog.pool.last.page.page_id == tail
                assert catalog.pool.last is not old_frame
            write(heap)
            for record in records:
                twin.get("h").insert(record)
            assert _ledger(catalog, heap) == _ledger(twin, twin.get("h")), (form, readmit)
            assert catalog.disk.peek_page(tail).record_batch() == [(0,), (1,), (2,)]
            assert old_frame.page is took_over and not old_frame.dirty
            assert took_over.record_batch() == _oids(0, PER_PAGE)
