"""The object-model layer, exercised with the paper's own examples."""

import pytest

from repro.core.model import MemberField, ObjectStore, register_string_keys
from repro.core.representations import (
    OidMembers,
    ProceduralMembers,
    ValueMembers,
)
from repro.errors import RepresentationError
from repro.storage.record import CharField, IntField, Schema


def build_store(cache_units):
    """The Section 2 database: persons and groups."""
    store = ObjectStore(cache_units=cache_units)
    person = store.create_class(
        "person",
        [CharField("name", 20), IntField("age"), CharField("hobby", 20)],
        key="name",
    )
    persons = [
        ("John", 62, "chess"),
        ("Mary", 62, "cycling"),
        ("Paul", 68, "golf"),
        ("Jill", 8, "chess"),
        ("Bill", 12, "cycling"),
        ("Mike", 44, "cycling"),
    ]
    for record in sorted(persons):
        store.insert("person", record)
    register_string_keys(person, [p[0] for p in persons])
    store.create_class(
        "group",
        [CharField("name", 20), MemberField("members")],
        key="name",
    )
    return store


@pytest.fixture
def store():
    return build_store(cache_units=8)


def age_index(store):
    return store.get_class("person").schema.field_index("age")


class TestProcedural:
    def test_elders_query(self, store):
        idx = age_index(store)
        store.insert(
            "group",
            (
                "elders",
                ProceduralMembers(
                    "person", lambda r: r[idx] >= 60, "person.age >= 60"
                ),
            ),
        )
        group = store.get("group", "elders")
        members = store.members(group, "members", "group")
        assert sorted(m[0] for m in members) == ["John", "Mary", "Paul"]

    def test_children_query(self, store):
        idx = age_index(store)
        store.insert(
            "group",
            (
                "children",
                ProceduralMembers(
                    "person", lambda r: r[idx] <= 15, "person.age <= 15"
                ),
            ),
        )
        group = store.get("group", "children")
        members = store.members(group, "members", "group")
        assert sorted(m[0] for m in members) == ["Bill", "Jill"]


class TestOidRepresentation:
    def test_members_by_oid(self, store):
        person = store.get_class("person")
        oids = [
            person.oid_of(store.get("person", name)) for name in ("Mary", "Mike")
        ]
        store.insert("group", ("cyclists", OidMembers(oids)))
        group = store.get("group", "cyclists")
        members = store.members(group, "members", "group")
        assert sorted(m[0] for m in members) == ["Mary", "Mike"]


class TestValueRepresentation:
    def test_members_inline(self, store):
        store.insert(
            "group",
            ("vips", ValueMembers([("Ada", 36, "math"), ("Alan", 41, "logic")])),
        )
        group = store.get("group", "vips")
        members = store.members(group, "members", "group")
        assert sorted(m[0] for m in members) == ["Ada", "Alan"]


class TestCaching:
    def test_cached_members_survive_and_invalidate(self, store):
        idx = age_index(store)
        store.insert(
            "group",
            ("elders", ProceduralMembers("person", lambda r: r[idx] >= 60, "q")),
        )
        group = store.get("group", "elders")
        first = store.members(group, "members", "group", use_cache=True)
        second = store.members(group, "members", "group", use_cache=True)
        assert first == second
        store.invalidate_members(group, "members", "group")
        third = store.members(group, "members", "group", use_cache=True)
        assert sorted(third) == sorted(first)

    @staticmethod
    def counted_group(store, name, calls):
        """A procedural group whose predicate logs every evaluation."""
        idx = age_index(store)

        def predicate(record):
            calls.append(name)
            return record[idx] >= 60

        store.insert("group", (name, ProceduralMembers("person", predicate, name)))
        return store.get("group", name)

    def test_cached_members_are_priced_by_their_record_sizes(self, store):
        person = store.get_class("person")
        oids = [person.oid_of(store.get("person", n)) for n in ("Mary", "Mike")]
        store.insert("group", ("cyclists", OidMembers(oids)))
        for group in (self.counted_group(store, "elders", []),
                      store.get("group", "cyclists")):
            members = store.members(group, "members", "group", use_cache=True)
            key = store._member_cache_key(
                store.get_class("group").schema.value(group, "members")
            )
            _, (payload, size) = store._cache.relation.lookup(key)
            assert payload == tuple(members)
            assert size == sum(map(person.schema.record_size, members))

    def test_a_hit_protects_an_entry_from_eviction(self):
        store = build_store(cache_units=2)
        calls = []
        a, b, c = (self.counted_group(store, name, calls) for name in "abc")
        for group in (a, b, a, c):  # the hit on a leaves b least recent
            store.members(group, "members", "group", use_cache=True)
        calls.clear()
        store.members(a, "members", "group", use_cache=True)
        assert calls == []  # still cached
        store.members(b, "members", "group", use_cache=True)
        assert calls  # evicted, so resolved again


class TestErrors:
    def test_duplicate_class(self, store):
        with pytest.raises(RepresentationError):
            store.create_class("person", [IntField("x")], key="x")

    def test_unknown_class(self, store):
        with pytest.raises(RepresentationError):
            store.get_class("nope")

    def test_member_field_rejects_plain_values(self, store):
        with pytest.raises(RepresentationError):
            store.insert("group", ("bad", [1, 2, 3]))

    def test_member_field_sizes(self):
        field = MemberField("members")
        from repro.core.oid import Oid

        assert field.size_of(OidMembers([Oid(1, 1)] * 3)) == 32
        assert field.size_of(ValueMembers([("a",), ("b",)])) == 202
        proc = ProceduralMembers("person", lambda r: True, "x" * 30)
        assert field.size_of(proc) == 32
