"""Round-trip tests for the precompiled slotted-page byte codecs.

The zero-copy page layer serialises pages as ``[count][offset table]
[payloads]`` through each schema's :class:`RecordCodec`.  Everything the
simulator measures rides on those byte images surviving a round trip
bit-for-bit as Python values — including value *types* (``Oid`` named
tuples, not plain pairs), blank-compressed char fields, and frozen pages
pickling as their byte image.
"""

import pickle

from repro.core.oid import Oid
from repro.storage.page import PAGE_HEADER_BYTES, Page, PageId, SLOT_BYTES
from repro.storage.record import (
    CharField,
    IntField,
    OidListField,
    Schema,
)


MIXED_SCHEMA = Schema(
    [
        IntField("oid"),
        IntField("ret1"),
        CharField("dummy", 60),
        OidListField("children", 8),
    ]
)


def roundtrip(schema, records):
    codec = schema.codec
    assert codec is not None
    return codec.decode(codec.encode(records))


class TestWorkloadSchemaRoundtrip:
    def test_built_relations_roundtrip_exactly(self, tiny_db):
        """Every relation of a real built database survives encode+decode."""
        relations = [tiny_db.parent_rel] + list(tiny_db.child_rels)
        if tiny_db.cluster is not None:
            relations.append(tiny_db.cluster.relation)
        for relation in relations:
            codec = relation.schema.codec
            assert codec is not None, relation.name
            records = list(relation.scan())
            assert records, relation.name
            assert roundtrip(relation.schema, records) == records

    def test_oid_values_revive_as_oid_namedtuples(self):
        records = [(1, 2, "x", [Oid(1, 10), Oid(2, 20)])]
        (decoded,) = roundtrip(MIXED_SCHEMA, records)
        assert decoded == records[0]
        for oid in decoded[3]:
            assert type(oid) is Oid

    def test_container_kind_is_preserved(self):
        as_list = [(1, 2, "x", [Oid(1, 10)])]
        as_tuple = [(1, 2, "x", (Oid(1, 10),))]
        assert type(roundtrip(MIXED_SCHEMA, as_list)[0][3]) is list
        assert type(roundtrip(MIXED_SCHEMA, as_tuple)[0][3]) is tuple

    def test_edge_values(self):
        records = [
            (0, -(2**62), "", []),
            (2**62, -1, "ünïcødé-βλob", [Oid(0, 0)]),
            (7, 8, " " * 60, [Oid(i, i * 3) for i in range(8)]),
        ]
        assert roundtrip(MIXED_SCHEMA, records) == records

    def test_empty_record_list(self):
        assert roundtrip(MIXED_SCHEMA, []) == []

    def test_blank_compression_shrinks_byte_image(self):
        codec = MIXED_SCHEMA.codec
        short = codec.encode([(1, 2, "ab", [])])
        long = codec.encode([(1, 2, "a" * 60, [])])
        assert len(short) < len(long)


class TestExactPageFill:
    def test_records_exactly_filling_a_page(self):
        """Inserts that land free_bytes exactly on zero, then round-trip."""
        schema = Schema([IntField("k"), CharField("pad", 64, compressed=False)])
        size = schema.record_size((0, "x"))
        page = Page(PageId(0, 0), capacity=2048)
        usable = 2048 - PAGE_HEADER_BYTES
        per_record = size + SLOT_BYTES
        fill = usable // per_record
        # Pad the first record's *accounted* size so the last insert
        # consumes the free space exactly.
        slack = usable - fill * per_record
        page.codec = schema.codec
        page.insert((0, "first"), size + slack)
        for i in range(1, fill):
            assert page.fits(size)
            page.insert((i, "x"), size)
        assert page.free_bytes == 0
        assert not page.fits(1)
        decoded = schema.codec.decode(page.to_bytes())
        assert decoded == page.record_batch()

    def test_refusal_when_one_byte_short(self):
        schema = Schema([IntField("k")])
        page = Page(PageId(0, 0), capacity=2048)
        free = page.free_bytes
        assert page.fits(free - SLOT_BYTES)
        assert not page.fits(free - SLOT_BYTES + 1)


class TestFrozenPagePickling:
    """A page itself is never pickled (the arena stores its image raw);
    the codec a frozen page carries travels in the arena's shared blob."""

    def test_schema_pickle_rebuilds_codec_and_sizers(self):
        revived = pickle.loads(pickle.dumps(MIXED_SCHEMA))
        assert revived.codec is not None
        records = [(5, 6, "zz", [Oid(2, 9)])]
        assert revived.codec.decode(revived.codec.encode(records)) == records
        assert revived.record_size(records[0]) == MIXED_SCHEMA.record_size(
            records[0]
        )
        revived.validate(records[0])
