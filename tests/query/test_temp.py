"""Temporary relations: seal/drop lifecycle and I/O semantics."""

import pytest

from repro.query.temp import TempRelation, make_temp
from repro.storage.record import IntField, Schema

OID_SCHEMA = Schema([IntField("OID")])


class TestLifecycle:
    def test_fill_seal_scan(self, catalog):
        temp = make_temp(catalog.pool, OID_SCHEMA, [(i,) for i in range(100)])
        assert list(temp.scan()) == [(i,) for i in range(100)]
        assert temp.heap.num_records == 100
        temp.drop()

    def test_insert_after_seal_rejected(self, catalog):
        temp = make_temp(catalog.pool, OID_SCHEMA, [(1,)])
        with pytest.raises(RuntimeError):
            temp.insert_many([(2,)])

    def test_double_drop_is_safe(self, catalog):
        temp = make_temp(catalog.pool, OID_SCHEMA, [(1,)])
        temp.drop()
        assert not catalog.disk.file_exists(temp.heap.file_id)
        temp.drop()

    def test_unsealed_when_requested(self, catalog):
        temp = make_temp(catalog.pool, OID_SCHEMA, [(1,)], seal=False)
        temp.insert_many([(2,)])  # still open
        assert temp.heap.num_records == 2
        temp.drop()

    def test_names_are_unique(self, catalog):
        a = TempRelation(catalog.pool, OID_SCHEMA)
        b = TempRelation(catalog.pool, OID_SCHEMA)
        assert a.heap.name != b.heap.name


class TestIoSemantics:
    def test_seal_charges_writes(self, catalog):
        catalog.disk.reset_counters()
        temp = TempRelation(catalog.pool, OID_SCHEMA)
        temp.insert_many([(i,) for i in range(1000)])
        assert catalog.disk.writes == 0  # nothing forced yet
        temp.seal()
        assert catalog.disk.writes == temp.heap.num_pages

    def test_seal_is_idempotent(self, catalog):
        temp = make_temp(catalog.pool, OID_SCHEMA, [(1,)])
        writes = catalog.disk.writes
        temp.seal()
        assert catalog.disk.writes == writes

    def test_small_temp_rescan_hits_buffer(self, catalog):
        temp = make_temp(catalog.pool, OID_SCHEMA, [(i,) for i in range(10)])
        catalog.disk.reset_counters()
        list(temp.scan())
        assert catalog.disk.reads == 0  # sealed but still resident

    def test_drop_discards_without_writes(self, catalog):
        temp = TempRelation(catalog.pool, OID_SCHEMA)
        temp.insert_many([(i,) for i in range(1000)])
        catalog.disk.reset_counters()
        temp.drop()
        assert catalog.disk.writes == 0
