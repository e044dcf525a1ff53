"""Schemas and record sizing, including the blank-compression model."""

import pytest

from repro.core.oid import Oid
from repro.errors import RecordError
from repro.storage.record import (
    BlobField,
    CharField,
    CHAR_OVERHEAD,
    IntField,
    OID_CHARS,
    OidListField,
    Schema,
    pad_string,
)


class TestFields:
    def test_int_field_size(self):
        field = IntField("x")
        assert field.size_of(12345) == 4

    def test_int_field_rejects_non_int(self):
        field = IntField("x")
        with pytest.raises(RecordError):
            field.validate("7")
        with pytest.raises(RecordError):
            field.validate(True)  # bools are not ints here

    def test_char_compressed_size_tracks_value(self):
        field = CharField("s", width=100)
        assert field.size_of("abc") == 3 + CHAR_OVERHEAD
        assert field.size_of("") == CHAR_OVERHEAD

    def test_char_uncompressed_size_is_width(self):
        field = CharField("s", width=100, compressed=False)
        assert field.size_of("abc") == 100

    def test_char_rejects_overflow(self):
        field = CharField("s", width=3)
        with pytest.raises(RecordError):
            field.validate("abcd")

    def test_oid_list_size(self):
        field = OidListField("children", max_oids=10)
        oids = [Oid(1, i) for i in range(5)]
        assert field.size_of(oids) == 5 * OID_CHARS + CHAR_OVERHEAD

    def test_oid_list_rejects_strings_and_overflow(self):
        field = OidListField("children", max_oids=2)
        with pytest.raises(RecordError):
            field.validate("not a list")
        with pytest.raises(RecordError):
            field.validate([Oid(1, 1), Oid(1, 2), Oid(1, 3)])

    def test_blob_field_uses_size_fn(self):
        field = BlobField("value", lambda v: 10 * len(v))
        assert field.size_of((1, 2, 3)) == 30

    def test_field_name_required(self):
        with pytest.raises(RecordError):
            IntField("")


class TestSchema:
    def make(self) -> Schema:
        return Schema([IntField("a"), IntField("b"), CharField("c", 20)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(RecordError):
            Schema([IntField("a"), IntField("a")])

    def test_empty_rejected(self):
        with pytest.raises(RecordError):
            Schema([])

    def test_validate_checks_arity(self):
        schema = self.make()
        with pytest.raises(RecordError):
            schema.validate((1, 2))

    def test_validate_checks_types(self):
        schema = self.make()
        with pytest.raises(RecordError):
            schema.validate((1, "nope", "x"))

    def test_record_size_sums_fields(self):
        schema = self.make()
        assert schema.record_size((1, 2, "hello")) == 4 + 4 + 5 + CHAR_OVERHEAD

    def test_value(self):
        schema = self.make()
        assert schema.value((1, 2, "x"), "b") == 2

    def test_survives_pickle_and_deepcopy(self):
        import copy
        import pickle

        schema = self.make()
        for clone in (pickle.loads(pickle.dumps(schema)), copy.deepcopy(schema)):
            assert clone.value((1, 2, "x"), "c") == "x"

    def test_unknown_field(self):
        schema = self.make()
        with pytest.raises(RecordError):
            schema.field_index("nope")

    def test_names(self):
        schema = self.make()
        assert schema.names() == ["a", "b", "c"]


class TestPadString:
    def test_exact_length(self):
        assert len(pad_string("x", 50)) == 50

    def test_truncates(self):
        assert pad_string("abcdef", 3) == "abc"

    def test_zero_or_negative(self):
        assert pad_string("abc", 0) == ""

    def test_deterministic(self):
        assert pad_string("p", 30) == pad_string("p", 30)

    def test_pins_exact_fill(self):
        """The fill is 'x' characters appended to base — pinned byte-for-byte
        so the generator's dummy values (and every derived page layout)
        never drift across refactors."""
        assert pad_string("p", 5) == "pxxxx"
        assert pad_string("abc", 6) == "abcxxx"
        assert pad_string("", 4) == "xxxx"
        assert pad_string("abcdef", 6) == "abcdef"
        assert pad_string("abcdef", 4) == "abcd"
        assert pad_string("abc", -3) == ""
