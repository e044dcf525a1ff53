"""Relation catalog.

The catalog is the top of the storage layer: it owns the disk manager and
buffer pool, assigns relation identifiers (the first component of every
OID, Section 2.2 of the paper) and tracks each relation's access method.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple, Union

from repro.errors import CatalogError
from repro.storage.buffer import BufferPool, DEFAULT_BUFFER_PAGES
from repro.storage.btree import BTreeFile
from repro.storage.disk import DiskManager, IoSnapshot
from repro.storage.hashfile import HashFile
from repro.storage.isam import IsamIndex
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.record import Schema

Relation = Union[BTreeFile, HashFile]


class Catalog:
    """Creates and resolves relations; owns disk and buffer pool."""

    def __init__(
        self,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_policy: str = "lru",
    ) -> None:
        self.disk = DiskManager(page_size)
        self.pool = BufferPool(self.disk, buffer_pages, buffer_policy)
        self._relations: Dict[str, Relation] = {}
        self._indexes: Dict[str, IsamIndex] = {}
        self._rel_ids: Dict[str, int] = {}
        self._rel_names: Dict[int, str] = {}
        self._next_rel_id = 1

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------
    def _register(self, name: str, relation: Relation) -> None:
        if name in self._relations:
            raise CatalogError("relation %r already exists" % name)
        self._relations[name] = relation
        rel_id = self._next_rel_id
        self._next_rel_id += 1
        self._rel_ids[name] = rel_id
        self._rel_names[rel_id] = name

    def create_btree(self, name: str, schema: Schema, key_name: str) -> BTreeFile:
        """A B-tree relation keyed on ``key_name`` (ParentRel, ChildRel...)."""
        btree = BTreeFile(self.pool, schema, key_name, name)
        self._register(name, btree)
        return btree

    def create_hash(
        self, name: str, schema: Schema, key_name: str, buckets: int
    ) -> HashFile:
        """A static-hash relation (the unit cache)."""
        hashfile = HashFile(self.pool, schema, key_name, buckets, name)
        self._register(name, hashfile)
        return hashfile

    def create_isam_index(self, name: str) -> IsamIndex:
        """A standalone static index (e.g. on ClusterRel.OID)."""
        if name in self._indexes:
            raise CatalogError("index %r already exists" % name)
        index = IsamIndex(self.pool, name)
        self._indexes[name] = index
        return index

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def get(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError("no relation named %r" % name) from None

    def get_index(self, name: str) -> IsamIndex:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError("no index named %r" % name) from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def rel_id(self, name: str) -> int:
        """Relation identifier used as the OID prefix."""
        try:
            return self._rel_ids[name]
        except KeyError:
            raise CatalogError("no relation named %r" % name) from None

    def rel_name(self, rel_id: int) -> str:
        try:
            return self._rel_names[rel_id]
        except KeyError:
            raise CatalogError("no relation with id %r" % rel_id) from None

    def relations(self) -> Iterator[Tuple[str, Relation]]:
        return iter(self._relations.items())

    def drop(self, name: str) -> None:
        """Drop a relation (its rel id is never reused)."""
        relation = self.get(name)
        self.pool.invalidate_file(relation.file_id)
        self.disk.drop_file(relation.file_id)
        del self._relations[name]

    # ------------------------------------------------------------------
    # accounting passthroughs
    # ------------------------------------------------------------------
    def io_snapshot(self) -> IoSnapshot:
        return self.disk.snapshot()

    def total_data_pages(self) -> int:
        return self.disk.total_pages()
