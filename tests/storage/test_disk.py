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
