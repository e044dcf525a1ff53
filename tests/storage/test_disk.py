"""Disk manager: file lifecycle and I/O accounting."""

import pytest

from repro.errors import FileNotFoundError_, PageNotFoundError
from repro.storage.disk import DiskManager, IoSnapshot
from repro.storage.page import PageId


@pytest.fixture
def disk() -> DiskManager:
    return DiskManager(page_size=256)


class TestFiles:
    def test_create_assigns_distinct_ids(self, disk):
        a = disk.create_file("a")
        b = disk.create_file("b")
        assert a != b
        assert disk.file_name(a) == "a"

    def test_drop_removes(self, disk):
        fid = disk.create_file()
        disk.drop_file(fid)
        assert not disk.file_exists(fid)
        with pytest.raises(FileNotFoundError_):
            disk.num_pages(fid)

    def test_truncate_keeps_file(self, disk):
        fid = disk.create_file()
        disk.allocate_page(fid)
        disk.truncate_file(fid)
        assert disk.file_exists(fid)
        assert disk.num_pages(fid) == 0

    def test_total_pages(self, disk):
        a = disk.create_file()
        b = disk.create_file()
        disk.allocate_page(a)
        disk.allocate_page(b)
        disk.allocate_page(b)
        assert disk.total_pages() == 3


class TestIo:
    def test_allocation_is_free(self, disk):
        fid = disk.create_file()
        disk.allocate_page(fid)
        assert disk.snapshot() == IoSnapshot(0, 0)

    def test_read_and_write_counted(self, disk):
        fid = disk.create_file()
        page = disk.allocate_page(fid)
        disk.read_page(page.page_id)
        disk.write_page(page)
        assert disk.snapshot() == IoSnapshot(1, 1)
        assert (disk.reads, disk.writes) == (1, 1)

    def test_peek_is_free(self, disk):
        fid = disk.create_file()
        page = disk.allocate_page(fid)
        disk.peek_page(page.page_id)
        assert disk.snapshot().total == 0

    def test_missing_page_raises(self, disk):
        fid = disk.create_file()
        with pytest.raises(PageNotFoundError):
            disk.read_page(PageId(fid, 5))

    def test_reset_counters(self, disk):
        fid = disk.create_file()
        page = disk.allocate_page(fid)
        disk.read_page(page.page_id)
        disk.write_page(page)
        disk.reset_counters()
        assert disk.snapshot().total == 0
        assert (disk.reads, disk.writes) == (0, 0)

    def test_io_hook_observes(self, disk):
        events = []
        disk.io_hook = lambda kind, pid: events.append((kind, pid))
        fid = disk.create_file()
        page = disk.allocate_page(fid)
        disk.read_page(page.page_id)
        disk.write_page(page)
        assert events == [("read", page.page_id), ("write", page.page_id)]


class TestSnapshots:
    def test_subtraction(self):
        delta = IoSnapshot(10, 4) - IoSnapshot(7, 1)
        assert delta == IoSnapshot(3, 3)
        assert delta.total == 6

    def test_addition(self):
        assert IoSnapshot(1, 2) + IoSnapshot(3, 4) == IoSnapshot(4, 6)


class TestPageIds:
    """``page_ids`` hands out one list per file and keeps it in step."""

    def test_growth_keeps_the_list_and_its_ids(self, disk):
        fid = disk.create_file()
        disk.allocate_page(fid)
        ids = disk.page_ids(fid)
        first = ids[0]
        pages = [disk.allocate_page(fid) for _ in range(5)]
        assert disk.page_ids(fid) is ids
        assert ids[0] is first
        assert ids == [PageId(fid, i) for i in range(6)]
        assert ids[1:] == [page.page_id for page in pages]

    def test_shrink_and_truncate_trim_it(self, disk):
        fid = disk.create_file()
        for _ in range(6):
            disk.allocate_page(fid)
        ids = disk.page_ids(fid)
        disk.shrink_file(fid, 4)
        assert disk.page_ids(fid) is ids and ids == [PageId(fid, i) for i in range(4)]
        disk.truncate_file(fid)
        assert disk.page_ids(fid) is ids and ids == []
        disk.allocate_page(fid)
        assert ids == [PageId(fid, 0)]

    def test_clone_starts_its_own_list(self, disk):
        fid = disk.create_file()
        disk.allocate_page(fid)
        ids = disk.page_ids(fid)
        disk.freeze()
        dup = disk.clone()
        dup.allocate_page(fid)
        assert dup.page_ids(fid) == [PageId(fid, 0), PageId(fid, 1)]
        assert ids == [PageId(fid, 0)]

    def test_growth_constructs_linearly_many_page_ids(self, disk, monkeypatch):
        import repro.storage.disk as disk_module

        made = []

        def counting_page_id(*args):
            made.append(args)
            return PageId(*args)

        monkeypatch.setattr(disk_module, "PageId", counting_page_id)
        fid = disk.create_file()
        disk.page_ids(fid)
        n = 300
        for _ in range(n):
            disk.allocate_page(fid)
            disk.page_ids(fid)  # a scan between two appends
        assert len(disk.page_ids(fid)) == n
        assert len(made) == n  # one per allocated page, none per call
