"""Page-level storage engine: the simulator's INGRES substitute.

Layering (bottom to top):

* :mod:`repro.storage.page` / :mod:`repro.storage.disk` — pages and a
  simulated disk that counts every page read/write (the study's metric);
* :mod:`repro.storage.buffer` — LRU buffer pool (100 pages by default, as
  in the paper);
* :mod:`repro.storage.record` — schemas and byte-accurate record sizing
  with INGRES-style blank compression;
* access methods — :class:`HeapFile`, :class:`BTreeFile`,
  :class:`IsamIndex`, :class:`HashFile`;
* :mod:`repro.storage.catalog` — relation namespace and OID prefixes.
"""

from repro.storage.buffer import BufferPool, BufferStats, DEFAULT_BUFFER_PAGES
from repro.storage.btree import BTreeFile, INDEX_ENTRY_BYTES
from repro.storage.catalog import Catalog
from repro.storage.disk import DiskManager, IoSnapshot
from repro.storage.hashfile import HashFile, stable_hash
from repro.storage.heap import HeapFile
from repro.storage.isam import IsamIndex
from repro.storage.page import DEFAULT_PAGE_SIZE, Page, PageId
from repro.storage.record import (
    BlobField,
    CharField,
    Field,
    IntField,
    OidListField,
    Schema,
    pad_string,
)

__all__ = [
    "BufferPool",
    "BufferStats",
    "DEFAULT_BUFFER_PAGES",
    "BTreeFile",
    "INDEX_ENTRY_BYTES",
    "Catalog",
    "DiskManager",
    "IoSnapshot",
    "HashFile",
    "stable_hash",
    "HeapFile",
    "IsamIndex",
    "DEFAULT_PAGE_SIZE",
    "Page",
    "PageId",
    "BlobField",
    "CharField",
    "Field",
    "IntField",
    "OidListField",
    "Schema",
    "pad_string",
]
