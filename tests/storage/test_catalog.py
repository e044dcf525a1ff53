"""Relation catalog: namespace, rel ids, drops, I/O passthrough."""

import pytest

from repro.errors import CatalogError
from repro.storage.catalog import Catalog
from repro.storage.record import IntField, Schema


def schema():
    return Schema([IntField("k"), IntField("v")])


def create(catalog, name, records=()):
    """A B-tree relation keyed on ``k``, bulk-loaded with ``records``."""
    tree = catalog.create_btree(name, schema(), "k")
    tree.bulk_load(list(records))
    return tree


class TestNamespace:
    def test_create_and_get(self, catalog):
        tree = create(catalog, "h")
        assert catalog.get("h") is tree
        assert catalog.has_relation("h")

    def test_duplicate_name_rejected(self, catalog):
        create(catalog, "h")
        with pytest.raises(CatalogError):
            catalog.create_hash("h", schema(), "k", 4)

    def test_missing_relation(self, catalog):
        with pytest.raises(CatalogError):
            catalog.get("nope")

    def test_relations_iterates(self, catalog):
        create(catalog, "a")
        create(catalog, "b")
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
        create(catalog, "a")
        create(catalog, "b")
        assert catalog.rel_id("a") != catalog.rel_id("b")
        assert catalog.rel_name(catalog.rel_id("a")) == "a"

    def test_ids_not_reused_after_drop(self, catalog):
        create(catalog, "a")
        old = catalog.rel_id("a")
        catalog.drop("a")
        create(catalog, "a2")
        assert catalog.rel_id("a2") != old

    def test_unknown_id(self, catalog):
        with pytest.raises(CatalogError):
            catalog.rel_name(999)


class TestDrop:
    def test_drop_frees_pages(self, catalog):
        tree = create(catalog, "h", [(i, i) for i in range(100)])
        catalog.drop("h")
        assert not catalog.disk.file_exists(tree.file_id)
        assert not catalog.has_relation("h")
        with pytest.raises(CatalogError):
            catalog.get("h")


class TestAccounting:
    def test_total_data_pages(self, catalog):
        tree = create(catalog, "h", [(i, i) for i in range(1000)])
        assert tree.num_pages > 1
        assert catalog.total_data_pages() == tree.num_pages
