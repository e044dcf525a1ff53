"""A small complex-object model over the storage engine.

This is the user-facing layer the paper's *examples* live in (groups of
persons, VLSI cells made of paths and rectangles): classes of objects
stored in keyed relations, whose attributes may hold member sets in any of
the three primary representations, with optional outside value caching.

It is intentionally simpler than the experimental machinery in
:mod:`repro.core.database` — the experiments need parameterised synthetic
populations and phase-attributed cost metering; applications need a clear
API:

    store = ObjectStore()
    person = store.create_class("person", [...], key="name")
    group = store.create_class("group", [...], key="name")
    store.insert("person", ("John", 62, ...))
    store.insert("group", ("elders", ProceduralMembers("person", pred), ...))
    members = store.members(group_record, "members")
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cache import UnitCache, unit_hashkey
from repro.core.oid import Oid
from repro.core.representations import (
    OidMembers,
    ProceduralMembers,
    ValueMembers,
)
from repro.errors import RepresentationError
from repro.storage.catalog import Catalog
from repro.storage.hashfile import stable_hash
from repro.storage.record import Field, Schema


class MemberField(Field):
    """A schema field holding a member-set descriptor.

    Sized like the underlying representation: a procedure costs its query
    text (a short string), an OID list costs 10 bytes per OID, inline
    values cost the sum of the member tuple sizes (approximated at 100
    bytes per member, the paper's typical subobject size, unless a sizer
    is supplied).
    """

    def __init__(self, name: str, value_sizer: Optional[Callable] = None) -> None:
        super().__init__(name)
        self.value_sizer = value_sizer

    def size_of(self, value: Any) -> int:
        if isinstance(value, ProceduralMembers):
            return max(len(value.text), 16) + 2
        if isinstance(value, OidMembers):
            return len(value.oids) * 10 + 2
        if isinstance(value, ValueMembers):
            if self.value_sizer is not None:
                return sum(self.value_sizer(v) for v in value.values)
            return 100 * len(value.values) + 2
        raise RepresentationError("not a member set: %r" % (value,))

    def validate(self, value: Any) -> None:
        if not isinstance(value, (ProceduralMembers, OidMembers, ValueMembers)):
            raise RepresentationError(
                "field %r expects a member-set descriptor, got %r"
                % (self.name, value)
            )


class ObjectClass:
    """One class of complex objects: a keyed B-tree relation."""

    def __init__(self, store: "ObjectStore", name: str, schema: Schema, key: str) -> None:
        self.store = store
        self.name = name
        self.schema = schema
        self.key = key
        self.relation = store.catalog.create_btree(name, schema, key)
        self.rel_id = store.catalog.rel_id(name)

    def oid_of(self, record: Tuple[Any, ...]) -> Oid:
        """The (relation id, primary key) OID of ``record``."""
        return Oid(self.rel_id, self._int_key(self.schema.value(record, self.key)))

    def _int_key(self, key: Any) -> int:
        # OIDs carry integer keys; string keys are hashed into the space.
        if isinstance(key, int):
            return key
        return stable_hash(key) % (10**9)


class ObjectStore:
    """A namespace of object classes plus an optional outside value cache."""

    def __init__(self, catalog: Optional[Catalog] = None, cache_units: int = 0) -> None:
        self.catalog = catalog or Catalog()
        self.classes: Dict[str, ObjectClass] = {}
        self._by_rel_id: Dict[int, ObjectClass] = {}
        self._cache: Optional[UnitCache] = None
        if cache_units > 0:
            # The hint (a few 100-byte members) only sizes the hash buckets.
            self._cache = UnitCache(self.catalog, cache_units, 400, "ObjectStore.Cache")

    # ------------------------------------------------------------------
    # class and object management
    # ------------------------------------------------------------------
    def create_class(self, name: str, fields: Sequence[Field], key: str) -> ObjectClass:
        if name in self.classes:
            raise RepresentationError("class %r already exists" % name)
        cls = ObjectClass(self, name, Schema(fields), key)
        self.classes[name] = cls
        self._by_rel_id[cls.rel_id] = cls
        return cls

    def get_class(self, name: str) -> ObjectClass:
        try:
            return self.classes[name]
        except KeyError:
            raise RepresentationError("no class named %r" % name) from None

    def insert(self, class_name: str, record: Tuple[Any, ...]) -> Oid:
        cls = self.get_class(class_name)
        cls.relation.insert(record)
        return cls.oid_of(record)

    def get(self, class_name: str, key: Any) -> Tuple[Any, ...]:
        return self.get_class(class_name).relation.lookup_one(key)

    # ------------------------------------------------------------------
    # member resolution (the heart of the representation alternatives)
    # ------------------------------------------------------------------
    def members(
        self,
        record: Tuple[Any, ...],
        field_name: str,
        owner_class: str,
        use_cache: bool = False,
    ) -> List[Tuple[Any, ...]]:
        """Resolve the member set stored in ``record.field_name``.

        * procedural: run the retrieve query over the target class;
        * OID: fetch each member through its relation's B-tree;
        * value: return the inline tuples.

        ``use_cache`` consults/maintains the store's outside value cache
        for the non-value representations.
        """
        cls = self.get_class(owner_class)
        members = cls.schema.value(record, field_name)
        if isinstance(members, ValueMembers):
            return list(members.values)

        cache_key = self._member_cache_key(members)
        if use_cache and self._cache is not None:
            hit = self._cache.lookup(cache_key)
            if hit is not None:
                return list(hit)

        if isinstance(members, ProceduralMembers):
            target = self.get_class(members.relation)
            resolved = [r for r in target.relation.scan() if members.predicate(r)]
            size = sum(map(target.schema.record_size, resolved))
        elif isinstance(members, OidMembers):
            resolved, size = [], 0
            for oid in members.oids:
                target = self._by_rel_id.get(oid.rel)
                if target is None:
                    raise RepresentationError("OID %s names an unknown relation" % (oid,))
                resolved.append(target.relation.lookup_one(self._decode_key(target, oid)))
                size += target.schema.record_size(resolved[-1])
        else:
            raise RepresentationError("unresolvable member set: %r" % (members,))

        if use_cache and self._cache is not None:
            # Invalidation is explicit (invalidate_members): no I-locks.
            self._cache.insert(cache_key, 0, (), tuple(resolved), size)
        return resolved

    def invalidate_members(self, record: Tuple[Any, ...], field_name: str, owner_class: str) -> None:
        """Drop the cached resolution of one member set (manual I-lock)."""
        if self._cache is None:
            return
        cls = self.get_class(owner_class)
        members = cls.schema.value(record, field_name)
        self._cache.discard(self._member_cache_key(members))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _member_cache_key(self, members: Any) -> int:
        if isinstance(members, ProceduralMembers):
            return stable_hash(("proc", members.relation, members.text))
        if isinstance(members, OidMembers):
            return unit_hashkey(0, tuple(oid.encode() for oid in members.oids))
        raise RepresentationError("member set %r is not cacheable" % (members,))

    def _decode_key(self, target: ObjectClass, oid: Oid) -> Any:
        # The model stores integer keys directly; hashed string keys are
        # not reversible, so classes with string keys keep a sidecar map.
        sidecar = getattr(target, "_key_by_hash", None)
        if sidecar is not None and oid.key in sidecar:
            return sidecar[oid.key]
        return oid.key


def register_string_keys(cls: ObjectClass, keys: Sequence[str]) -> None:
    """Teach ``cls`` to map hashed OID keys back to its string keys.

    Classes keyed by strings (``person.name``) hash the key into the OID
    key space; dereferencing needs the reverse map.
    """
    sidecar = getattr(cls, "_key_by_hash", None)
    if sidecar is None:
        sidecar = {}
        setattr(cls, "_key_by_hash", sidecar)
    for key in keys:
        sidecar[cls._int_key(key)] = key
