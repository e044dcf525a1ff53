"""Schemas, fields and record-size computation.

What the paper's I/O numbers depend on is how many tuples fit on a 2 KB
page, which is purely a function of record *sizes*.  This module computes
those sizes with the same conventions the paper describes for INGRES 5.0:

* integer fields are 4 bytes;
* character fields are declared with a fixed width but stored with blanks
  "compressed" ([RTI86], Section 4 of the paper), i.e. a value occupies
  ``len(value)`` bytes (capped at the declared width) plus a 2-byte length
  prefix — this is how ParentRel's ``children`` field holds a variable
  number of OIDs inside a fixed-width attribute;
* OID-list fields model exactly that ``children`` attribute: a list of
  :class:`~repro.core.oid.Oid` values printed into a character field at
  ``OID_CHARS`` bytes apiece.

Records themselves are plain tuples, positionally matched to the schema.
Every schema whose fields are all ints, chars and OID lists carries a
:class:`RecordCodec` that packs a page's records into the slotted byte
image frozen pages persist as; schemas with a :class:`BlobField` have no
codec and their pages stay decoded.
"""

from __future__ import annotations

import struct
from itertools import chain
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import RecordError
from repro.obs import spans as _spans

#: Bytes one OID occupies inside a character-encoded OID list (relation
#: identifier + primary key + separator, cf. Section 2.2 of the paper).
OID_CHARS = 10

#: Length prefix charged to every compressed character value.
CHAR_OVERHEAD = 2

INT_BYTES = 4


class Field:
    """Base class for schema fields.  Subclasses define size and checking."""

    #: Stored byte size when it is value-independent (e.g. 4 for an
    #: integer, the declared width for an uncompressed char field);
    #: ``None`` when the size depends on the value.  Schemas whose
    #: fields are all fixed-size skip per-record size computation.
    fixed_size: Optional[int] = None

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise RecordError("field name must be a non-empty string")
        self.name = name

    def size_of(self, value: Any) -> int:
        raise NotImplementedError

    def validate(self, value: Any) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "%s(%r)" % (type(self).__name__, self.name)


class IntField(Field):
    """A 4-byte integer attribute (``retl``, ``ret2``, ``ret3``, OIDs...)."""

    fixed_size = INT_BYTES

    def size_of(self, value: Any) -> int:
        return INT_BYTES

    def validate(self, value: Any) -> None:
        if type(value) is int:
            return
        if not isinstance(value, int) or isinstance(value, bool):
            raise RecordError("field %r expects int, got %r" % (self.name, value))


class CharField(Field):
    """A fixed-width character attribute with blank compression.

    ``width`` is the declared maximum.  The stored size is
    ``min(len(value), width) + CHAR_OVERHEAD`` when ``compressed`` (the
    INGRES behaviour used in the paper) or ``width`` when not.
    """

    def __init__(self, name: str, width: int, compressed: bool = True) -> None:
        super().__init__(name)
        if width <= 0:
            raise RecordError("char field %r needs positive width" % name)
        self.width = width
        self.compressed = compressed
        if not compressed:
            self.fixed_size = width

    def size_of(self, value: Any) -> int:
        if not self.compressed:
            return self.width
        return min(len(value), self.width) + CHAR_OVERHEAD

    def validate(self, value: Any) -> None:
        if type(value) is str and len(value) <= self.width:
            return
        if not isinstance(value, str):
            raise RecordError("field %r expects str, got %r" % (self.name, value))
        if len(value) > self.width:
            raise RecordError(
                "value of %d chars exceeds width %d of field %r"
                % (len(value), self.width, self.name)
            )


class OidListField(Field):
    """The ``children`` attribute: a list of OIDs in a character field.

    ``max_oids`` bounds the list (the declared width divided by
    :data:`OID_CHARS`); values are sequences of OIDs (anything hashable and
    comparable — the library uses :class:`repro.core.oid.Oid`).
    """

    def __init__(self, name: str, max_oids: int) -> None:
        super().__init__(name)
        if max_oids <= 0:
            raise RecordError("oid-list field %r needs positive max_oids" % name)
        self.max_oids = max_oids

    def size_of(self, value: Any) -> int:
        return len(value) * OID_CHARS + CHAR_OVERHEAD

    def validate(self, value: Any) -> None:
        kind = type(value)
        if (kind is list or kind is tuple) and len(value) <= self.max_oids:
            return
        if isinstance(value, (str, bytes)) or not isinstance(value, (list, tuple)):
            raise RecordError(
                "field %r expects a list/tuple of OIDs, got %r" % (self.name, value)
            )
        if len(value) > self.max_oids:
            raise RecordError(
                "%d OIDs exceed declared maximum %d of field %r"
                % (len(value), self.max_oids, self.name)
            )


class BlobField(Field):
    """An opaque payload whose on-page size is computed by a callable.

    The unit cache stores "the value of the subobjects of a unit" — the
    concatenation of whole child tuples — as one attribute
    (``Cache(hashkey, value)``, Section 4 of the paper).  ``size_fn`` maps
    the value to the bytes it would occupy and must be a pure function of
    the value (the unit cache stores ``(payload, payload_bytes)`` and
    reads the size back with ``operator.itemgetter(1)``): schemas are
    shared by every snapshot clone, so a size may depend on nothing else.
    """

    def __init__(self, name: str, size_fn: Callable[[Any], int]) -> None:
        super().__init__(name)
        if not callable(size_fn):
            raise RecordError("blob field %r needs a callable size_fn" % name)
        self.size_fn = size_fn

    def size_of(self, value: Any) -> int:
        return int(self.size_fn(value))

    def validate(self, value: Any) -> None:
        try:
            size = self.size_fn(value)
        except (LookupError, TypeError):
            size = None  # a value the size_fn cannot read
        if not isinstance(size, int) or size < 0:
            raise RecordError(
                "size_fn of blob field %r returned %r" % (self.name, size)
            )


_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_OID_PAIR = struct.Struct("<qq")


class RecordCodec:
    """Precompiled slotted-page byte codec for one schema.

    :meth:`encode` lays records out as ``[count][offset table][payload]``
    — a classic slotted page: a ``u32`` record count, one ``u32`` payload
    offset per record (the line table), then the variable-length record
    payloads.  :meth:`decode` walks the payload with
    ``struct.unpack_from`` directly against the buffer (no per-field
    slicing), reconstructing the identical Python tuples.

    Field encodings:

    * :class:`IntField` — 8-byte little-endian signed int (wider than the
      4 bytes the *accounting* charges; the byte image is the simulator's
      own physical format, while on-page size accounting keeps modelling
      INGRES's — the two are deliberately independent);
    * :class:`CharField` — ``u16`` byte length + UTF-8 payload (blank
      compression falls out naturally: short values take few bytes);
    * :class:`OidListField` — container tag (list/tuple) + ``u16`` count
      + ``(rel, key)`` int pairs, reconstructed as
      :class:`repro.core.oid.Oid` values.

    Schemas containing :class:`BlobField` (an arbitrary Python payload)
    have no codec; their pages stay in decoded-tuple form.
    """

    __slots__ = ("schema", "_codes")

    #: Field-type tags used in the compiled plan.
    _INT, _CHAR, _OIDS = 0, 1, 2

    def __init__(self, schema: "Schema") -> None:
        self.schema = schema
        self._compile()

    def _compile(self) -> None:
        codes: List[int] = []
        for field in self.schema.fields:
            if isinstance(field, IntField):
                codes.append(self._INT)
            elif isinstance(field, CharField):
                codes.append(self._CHAR)
            elif isinstance(field, OidListField):
                codes.append(self._OIDS)
            else:
                raise RecordError(
                    "field %r (%s) is not byte-codable"
                    % (field.name, type(field).__name__)
                )
        self._codes = tuple(codes)

    # Struct objects are not picklable; carry only the schema and
    # recompile on revival (snapshot store, sweep workers).
    def __getstate__(self) -> "Schema":
        return self.schema

    def __setstate__(self, schema: "Schema") -> None:
        self.schema = schema
        self._compile()

    def __deepcopy__(self, memo: dict) -> "RecordCodec":
        # Immutable once compiled; snapshot attach deep-copies one per
        # schema per clone otherwise, for no behavioural difference.
        return self

    # ------------------------------------------------------------------
    def encode(self, records: Sequence[Tuple[Any, ...]]) -> bytes:
        """The slotted byte image of ``records``."""
        prof = _spans._PROFILER
        if prof is None:
            return self._encode(records)
        t0 = perf_counter_ns()
        image = self._encode(records)
        prof.add("codec.encode", perf_counter_ns() - t0)
        return image

    def _encode(self, records: Sequence[Tuple[Any, ...]]) -> bytes:
        codes = self._codes
        INT, CHAR = self._INT, self._CHAR
        payloads: List[bytes] = []
        offsets: List[int] = []
        position = 0
        for record in records:
            offsets.append(position)
            parts: List[bytes] = []
            for code, value in zip(codes, record):
                if code == INT:
                    parts.append(_I64.pack(value))
                elif code == CHAR:
                    raw = value.encode("utf-8")
                    parts.append(_U16.pack(len(raw)))
                    parts.append(raw)
                else:  # _OIDS
                    parts.append(_U8.pack(1 if isinstance(value, list) else 0))
                    parts.append(_U16.pack(len(value)))
                    for oid in value:
                        parts.append(_OID_PAIR.pack(oid[0], oid[1]))
            encoded = b"".join(parts)
            payloads.append(encoded)
            position += len(encoded)
        head = [_U32.pack(len(records))]
        head.extend(_U32.pack(offset) for offset in offsets)
        head.extend(payloads)
        return b"".join(head)

    def decode(self, buf: bytes) -> List[Tuple[Any, ...]]:
        """The records of a byte image produced by :meth:`encode`."""
        prof = _spans._PROFILER
        if prof is None:
            return self._decode(buf)
        t0 = perf_counter_ns()
        records = self._decode(buf)
        prof.add("codec.decode", perf_counter_ns() - t0)
        return records

    def _decode(self, buf: bytes) -> List[Tuple[Any, ...]]:
        from repro.core.oid import Oid  # layering: core depends on storage

        codes = self._codes
        INT, CHAR = self._INT, self._CHAR
        (count,) = _U32.unpack_from(buf, 0)
        base = 4 + 4 * count
        unpack_i64 = _I64.unpack_from
        unpack_u16 = _U16.unpack_from
        unpack_pair = _OID_PAIR.unpack_from
        records: List[Tuple[Any, ...]] = []
        position = base
        for _ in range(count):
            values: List[Any] = []
            for code in codes:
                if code == INT:
                    values.append(unpack_i64(buf, position)[0])
                    position += 8
                elif code == CHAR:
                    (length,) = unpack_u16(buf, position)
                    position += 2
                    # str(view, "utf-8") decodes bytes and memoryview
                    # alike — arena pages hand in mmap-backed views.
                    values.append(str(buf[position:position + length], "utf-8"))
                    position += length
                else:  # _OIDS
                    is_list = buf[position]
                    (length,) = unpack_u16(buf, position + 1)
                    position += 3
                    oids = []
                    for _ in range(length):
                        rel, key = unpack_pair(buf, position)
                        oids.append(Oid(rel, key))
                        position += 16
                    values.append(oids if is_list else tuple(oids))
            records.append(tuple(values))
        return records


class Schema:
    """An ordered collection of fields; records are positional tuples."""

    def __init__(self, fields: Sequence[Field]) -> None:
        if not fields:
            raise RecordError("schema needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise RecordError("duplicate field names in schema: %r" % (names,))
        self.fields: Tuple[Field, ...] = tuple(fields)
        self._index = {f.name: i for i, f in enumerate(fields)}
        sizes = [f.fixed_size for f in self.fields]
        self._fixed_record_size: Optional[int] = (
            sum(sizes) if all(s is not None for s in sizes) else None  # type: ignore[arg-type]
        )
        #: For variable-size schemas: the fixed-width byte total (the
        #: variable-width fields are sized by ``_var_sizers``).
        self._fixed_base: int = sum(s for s in sizes if s is not None)
        self._bind()

    def _bind(self) -> None:
        """Derive the pre-bound helpers pickling drops (see :meth:`__getstate__`)."""
        #: Pre-bound per-field validate callables — :meth:`validate` runs
        #: once per inserted record, so the attribute lookups add up.
        self._validators: Tuple[Callable[[Any], None], ...] = tuple(
            f.validate for f in self.fields
        )
        #: Every field is exactly an IntField: :meth:`validate_many` can
        #: then prove a whole batch valid without a per-record call.
        self._int_only: bool = all(type(f) is IntField for f in self.fields)
        #: Pre-bound sizers for just the variable-width fields, so
        #: :meth:`record_size` skips the fixed columns entirely (most
        #: schemas are a run of ints plus one char/oid-list field).
        self._var_sizers: Tuple[Tuple[int, Callable[[Any], int]], ...] = tuple(
            (i, f.size_of) for i, f in enumerate(self.fields) if f.fixed_size is None
        )
        #: The schema's byte codec (None for blob schemas).
        self.codec: Optional[RecordCodec] = (
            RecordCodec(self)
            if all(isinstance(f, (IntField, CharField, OidListField)) for f in self.fields)
            else None
        )

    # ------------------------------------------------------------------
    def field_index(self, name: str) -> int:
        """Position of field ``name``; raises RecordError if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise RecordError("no field %r in schema %r" % (name, self.names())) from None

    def names(self) -> List[str]:
        return [f.name for f in self.fields]

    def __len__(self) -> int:
        return len(self.fields)

    # ------------------------------------------------------------------
    def validate(self, record: Sequence[Any]) -> None:
        """Check arity and per-field types/widths; raise RecordError."""
        validators = self._validators
        if len(record) != len(validators):
            raise RecordError(
                "record arity %d does not match schema arity %d"
                % (len(record), len(self.fields))
            )
        for validator, value in zip(validators, record):
            validator(value)

    def validate_many(self, records: List[Sequence[Any]]) -> bool:
        """Whether one batch check proves every record passes :meth:`validate`.

        For all-``IntField`` schemas the arity and exact-``int`` tests
        run over the whole list at C speed.  ``False`` proves nothing —
        some record may be bad, or the schema has other field types —
        and the caller must fall back to :meth:`validate` record by
        record, which raises the error for the first bad one.
        """
        if not self._int_only:
            return False
        try:
            return set(map(len, records)) <= {len(self.fields)} and set(
                map(type, chain.from_iterable(records))
            ) <= {int}
        except TypeError:  # a record without a length: validate() names it
            return False

    def record_size(self, record: Sequence[Any]) -> int:
        """Bytes the record occupies on a page (excluding the slot entry)."""
        fixed = self._fixed_record_size
        if fixed is not None:
            return fixed
        size = self._fixed_base
        for index, size_of in self._var_sizers:
            size += size_of(record[index])
        return size

    def value(self, record: Sequence[Any], name: str) -> Any:
        """Extract field ``name`` from ``record``."""
        return record[self.field_index(name)]

    def __getstate__(self) -> Dict[str, Any]:
        # What _bind derives is dropped: the codec would make a Schema <->
        # RecordCodec reference cycle that pickle revives in an arbitrary
        # order, and the rest are bound methods of the fields.
        state = self.__dict__.copy()
        for name in ("codec", "_validators", "_int_only", "_var_sizers"):
            del state[name]
        return state

    def __deepcopy__(self, memo: dict) -> "Schema":
        # Schemas are immutable after construction (a BlobField's size_fn
        # is a pure function of the value), so snapshot clones share them
        # instead of deep-copying fields, validators and memos on every
        # memory-tier attach.
        memo[id(self)] = self
        return self

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._bind()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Schema(%s)" % ", ".join(self.names())


def pad_string(base: str, length: int) -> str:
    """Deterministically pad/truncate ``base`` to exactly ``length`` chars.

    The workload generator uses this to build ``dummy`` values that bring
    tuples to the paper's typical sizes (200 bytes for ParentRel, 100 for
    ChildRel).
    """
    if length <= 0:
        return ""
    return base[:length].ljust(length, "x")
