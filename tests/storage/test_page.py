"""Pages: byte budgets, slots, in-place mutation."""

import pytest

from repro.errors import PageFullError
from repro.storage.page import DEFAULT_PAGE_SIZE, PAGE_HEADER_BYTES, Page, PageId


def make_page(capacity: int = DEFAULT_PAGE_SIZE) -> Page:
    return Page(PageId(0, 0), capacity)


class TestCapacity:
    def test_new_page_charges_header(self):
        page = make_page()
        assert page.used_bytes == PAGE_HEADER_BYTES
        assert page.free_bytes == DEFAULT_PAGE_SIZE - PAGE_HEADER_BYTES

    def test_capacity_must_exceed_header(self):
        with pytest.raises(ValueError):
            Page(PageId(0, 0), PAGE_HEADER_BYTES)

    def test_fits_accounts_for_slot_overhead(self):
        page = make_page(100)
        # free = 60; a 59-byte record + 2-byte slot does not fit.
        assert not page.fits(59)
        assert page.fits(58)

    def test_insert_rejects_overflow(self):
        page = make_page(100)
        page.insert("a", 40)
        with pytest.raises(PageFullError):
            page.insert("b", 40)

    def test_exact_fill(self):
        page = make_page(100)
        page.insert("a", 58)  # 40 header + 58 + 2 slot = 100
        assert page.free_bytes == 0


class TestSlots:
    def test_insert_returns_consecutive_slots(self):
        page = make_page()
        assert page.insert("a", 10) == 0
        assert page.insert("b", 10) == 1
        assert page.get(1) == "b"

    def test_delete_compacts_and_returns(self):
        page = make_page()
        page.insert("a", 10)
        page.insert("b", 20)
        assert page.delete(0) == "a"
        assert list(page) == ["b"]
        assert page.used_bytes == PAGE_HEADER_BYTES + 20 + 2

    def test_pop_all_resets(self):
        page = make_page()
        page.insert("a", 10)
        page.insert("b", 10)
        assert page.pop_all() == ["a", "b"]
        assert len(page) == 0
        assert page.used_bytes == PAGE_HEADER_BYTES

    def test_entries_enumerates(self):
        page = make_page()
        page.insert("a", 10)
        page.insert("b", 10)
        assert list(page.entries()) == [(0, "a"), (1, "b")]


class TestReplace:
    def test_same_size_replace(self):
        page = make_page()
        page.insert("a", 10)
        page.replace(0, "z")
        assert page.get(0) == "z"
        assert page.record_size(0) == 10

    def test_growing_replace_adjusts_budget(self):
        page = make_page()
        page.insert("a", 10)
        before = page.used_bytes
        page.replace(0, "bigger", 25)
        assert page.used_bytes == before + 15

    def test_growth_past_capacity_rejected(self):
        page = make_page(100)
        page.insert("a", 40)
        with pytest.raises(PageFullError):
            page.replace(0, "huge", 100)

    def test_shrinking_replace_frees_budget(self):
        page = make_page()
        page.insert("a", 30)
        page.replace(0, "s", 5)
        assert page.record_size(0) == 5
