"""Hash files: static buckets, overflow chains, deletes, stable hashing."""

import random

import pytest

from repro.errors import DuplicateKeyError
from repro.storage.catalog import Catalog
from repro.storage.hashfile import stable_hash
from repro.storage.record import CharField, IntField, Schema


@pytest.fixture
def hashfile(catalog):
    schema = Schema([IntField("key"), CharField("payload", 256)])
    return catalog.create_hash("hf", schema, "key", buckets=8)


class TestStableHash:
    def test_int_identity_like(self):
        assert stable_hash(42) == 42
        assert stable_hash(-1) >= 0

    def test_str_deterministic(self):
        assert stable_hash("elders") == stable_hash("elders")
        assert stable_hash("elders") != stable_hash("children")

    def test_tuple_composes(self):
        assert stable_hash((1, 2)) == stable_hash((1, 2))
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_bool_and_bad_type(self):
        assert stable_hash(True) == 1
        with pytest.raises(TypeError):
            stable_hash([1, 2])


class TestBasics:
    def test_roundtrip(self, hashfile):
        hashfile.insert((1, "one"))
        assert hashfile.lookup(1) == (1, "one")
        assert hashfile.contains(1)

    def test_missing_key(self, hashfile):
        assert hashfile.lookup(99) is None

    def test_duplicate_rejected(self, hashfile):
        hashfile.insert((1, "a"))
        with pytest.raises(DuplicateKeyError):
            hashfile.insert((1, "b"))

    def test_scan_sees_everything(self, hashfile):
        for k in range(50):
            hashfile.insert((k, "v%d" % k))
        assert sorted(r[0] for r in hashfile.scan()) == list(range(50))

    def test_primary_pages_allocated_eagerly(self, hashfile):
        assert hashfile.num_pages == 8


class TestOverflow:
    def fill(self, hashfile, n=200):
        for k in range(n):
            hashfile.insert((k, "x" * 100))

    def test_overflow_chains_grow(self, hashfile):
        self.fill(hashfile)
        assert hashfile.overflow_pages() > 0

    def test_lookup_traverses_chains(self, hashfile):
        self.fill(hashfile)
        for k in range(0, 200, 17):
            assert hashfile.lookup(k) == (k, "x" * 100)

    def test_delete_from_chain(self, hashfile):
        self.fill(hashfile)
        assert hashfile.delete_if_present(100)
        assert hashfile.lookup(100) is None
        assert len(hashfile) == 199

    def test_empty_overflow_pages_recycled(self, hashfile):
        self.fill(hashfile)
        pages_before = hashfile.num_pages
        for k in range(200):
            assert hashfile.delete_if_present(k)
        self.fill(hashfile)
        assert hashfile.num_pages == pages_before  # free list reused


class TestDelete:
    def test_delete_if_present(self, hashfile):
        hashfile.insert((5, "five"))
        assert hashfile.delete_if_present(5)
        assert not hashfile.delete_if_present(5)

    def test_truncate(self, hashfile):
        for k in range(100):
            hashfile.insert((k, "v"))
        hashfile.truncate()
        assert len(hashfile) == 0
        assert list(hashfile.scan()) == []
        hashfile.insert((1, "back"))
        assert hashfile.lookup(1) == (1, "back")


def test_insert_rejects_a_key_stored_past_the_first_page_with_room():
    """A delete can open room on a chain page before the one holding a
    key; a later insert of that key must be rejected, not stored a
    second time on the page with room."""
    catalog = Catalog(buffer_pages=8, page_size=256)
    schema = Schema([IntField("key"), CharField("payload", 64)])
    hf = catalog.create_hash("hf", schema, "key", buckets=4)
    rng = random.Random(1)
    for _ in range(600):
        key = rng.randrange(120)
        if rng.random() < 0.5:
            try:
                hf.insert((key, "p" * rng.randrange(1, 60)))
            except DuplicateKeyError:
                assert hf.contains(key)
        else:
            hf.delete_if_present(key)
        hf.check_invariants()


class TestIoBehaviour:
    def test_lookup_cost_bounded_by_chain(self, catalog, hashfile):
        for k in range(50):
            hashfile.insert((k, "v" * 50))
        catalog.pool.clear(flush=True)
        catalog.disk.reset_counters()
        hashfile.lookup(7)
        chain = list(hashfile._chain(stable_hash(7) % hashfile.buckets))
        assert catalog.disk.reads <= len(chain)


@pytest.mark.parametrize("seed", range(8))
def test_random_inserts_and_deletes_match_a_dict(seed):
    """Inserts, deletes and truncates on small pages and few buckets, so
    chains grow, empty and recycle pages; the file answers like a dict
    and its structure checks hold after every step."""
    catalog = Catalog(buffer_pages=8, page_size=256)
    schema = Schema([IntField("key"), CharField("payload", 64)])
    hf = catalog.create_hash("hf", schema, "key", buckets=4)
    rng = random.Random(seed)
    model = {}
    for _ in range(400):
        key = rng.randrange(80)
        roll = rng.random()
        if roll < 0.5:
            record = (key, "p" * rng.randrange(1, 60))
            if key in model:
                with pytest.raises(DuplicateKeyError):
                    hf.insert(record)
            else:
                hf.insert(record)
                model[key] = record
        elif roll < 0.99:
            assert hf.delete_if_present(key) == (model.pop(key, None) is not None)
        else:
            hf.truncate()
            model.clear()
        hf.check_invariants()
        assert hf.lookup(key) == model.get(key)
        assert len(hf) == len(model)
    assert sorted(hf.scan()) == sorted(model.values())


# check_invariants: each structural check fires on its own fault.
def _filled(hashfile):
    for k in range(200):
        hashfile.insert((k, "x" * 100))
    return hashfile


def _peek(hf, page_no):
    return hf.pool.disk.peek_page(hf.pool.disk.page_ids(hf.file_id)[page_no])


def _a_chain_with_overflow(hf):
    bucket = next(b for b in range(hf.buckets) if b in hf._overflow_next)
    return list(hf._chain(bucket))


def _close_a_chain_on_itself(hf):
    last = _a_chain_with_overflow(hf)[-1]
    hf._overflow_next[last] = last


def _route_through_a_primary_page(hf):
    last = _a_chain_with_overflow(hf)[-1]
    hf._overflow_next[last] = hf.buckets - 1


def _empty_an_overflow_page(hf):
    for record in _peek(hf, _a_chain_with_overflow(hf)[-1]).pop_all():
        hf._keys.discard(record[0])
        hf._num_records -= 1


def _store_a_key_twice(hf):
    _peek(hf, hf._bucket(0)).insert((0, "x"), 8)
    hf._num_records += 1


def _store_a_key_in_a_foreign_bucket(hf):
    key = next(k for k in range(1000, 2000) if hf._bucket(k) != 0)
    _peek(hf, 0).insert((key, "x"), 8)
    hf._keys.add(key)
    hf._num_records += 1


def _bump_the_tally(hf):
    hf._num_records += 1


def _remember_an_absent_key(hf):
    hf._keys.add(10**6)


def _free_list_a_page_twice(hf):
    for k in range(200):
        hf.delete_if_present(k)
    assert hf._free_overflow
    hf._free_overflow.append(hf._free_overflow[0])


def _free_list_a_primary_page(hf):
    hf._free_overflow.append(0)


def _free_list_a_chained_page(hf):
    hf._free_overflow.append(_a_chain_with_overflow(hf)[-1])


def _allocate_an_orphan_page(hf):
    hf.pool.new_page(hf.file_id)


_HASH_FAULTS = [
    (_close_a_chain_on_itself, "chained twice"),
    (_route_through_a_primary_page, "routes through primary page"),
    (_empty_an_overflow_page, "empty overflow page"),
    (_store_a_key_twice, "duplicate key 0"),
    (_store_a_key_in_a_foreign_bucket, "sits in chain of 0"),
    (_bump_the_tally, "chains hold"),
    (_remember_an_absent_key, "key set and chains disagree"),
    (_free_list_a_page_twice, "free overflow list holds duplicates"),
    (_free_list_a_primary_page, "primary page 0 on the free list"),
    (_free_list_a_chained_page, "still chained"),
    (_allocate_an_orphan_page, "orphaned or phantom pages"),
]


@pytest.mark.parametrize(
    "corrupt, message", _HASH_FAULTS, ids=[f.__name__[1:] for f, _ in _HASH_FAULTS]
)
def test_check_invariants_catches(hashfile, corrupt, message):
    _filled(hashfile)
    assert hashfile.overflow_pages() > 0
    hashfile.check_invariants()
    corrupt(hashfile)
    with pytest.raises(AssertionError, match=message):
        hashfile.check_invariants()
