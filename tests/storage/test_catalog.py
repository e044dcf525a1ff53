"""Relation catalog: namespace, rel ids, drops, I/O passthrough."""

import pytest

from repro.errors import CatalogError
from repro.storage.catalog import Catalog
from repro.storage.record import IntField, Schema


def schema():
    return Schema([IntField("k"), IntField("v")])


class TestNamespace:
    def test_create_and_get(self, catalog):
        heap = catalog.create_heap("h", schema())
        assert catalog.get("h") is heap
        assert catalog.has_relation("h")

    def test_duplicate_name_rejected(self, catalog):
        catalog.create_heap("h", schema())
        with pytest.raises(CatalogError):
            catalog.create_btree("h", schema(), "k")

    def test_missing_relation(self, catalog):
        with pytest.raises(CatalogError):
            catalog.get("nope")

    def test_relations_iterates(self, catalog):
        catalog.create_heap("a", schema())
        catalog.create_heap("b", schema())
        assert sorted(name for name, _ in catalog.relations()) == ["a", "b"]

    def test_indexes_are_separate_namespace(self, catalog):
        catalog.create_isam_index("i")
        with pytest.raises(CatalogError):
            catalog.create_isam_index("i")
        assert catalog.get_index("i") is not None
        with pytest.raises(CatalogError):
            catalog.get_index("nope")


class TestRelIds:
    def test_ids_are_stable_and_distinct(self, catalog):
        catalog.create_heap("a", schema())
        catalog.create_heap("b", schema())
        assert catalog.rel_id("a") != catalog.rel_id("b")
        assert catalog.rel_name(catalog.rel_id("a")) == "a"

    def test_ids_not_reused_after_drop(self, catalog):
        catalog.create_heap("a", schema())
        old = catalog.rel_id("a")
        catalog.drop("a")
        catalog.create_heap("a2", schema())
        assert catalog.rel_id("a2") != old

    def test_unknown_id(self, catalog):
        with pytest.raises(CatalogError):
            catalog.rel_name(999)


class TestDrop:
    def test_drop_frees_pages(self, catalog):
        heap = catalog.create_heap("h", schema())
        for i in range(100):
            heap.insert((i, i))
        catalog.drop("h")
        assert not catalog.has_relation("h")
        with pytest.raises(CatalogError):
            catalog.get("h")


class TestAccounting:
    def test_total_data_pages(self, catalog):
        heap = catalog.create_heap("h", schema())
        for i in range(100):
            heap.insert((i, i))
        assert catalog.total_data_pages() == heap.num_pages
