"""Differential test of the hash file's inline chain walks.

Twin catalogs run one script of operations: one through
:class:`HashFile`'s ``lookup`` / ``insert`` / ``delete_if_present``, the
other through the literal per-page reference walk below (a chain
generator, a ``PageId`` per page, ``record_batch`` / ``entries`` per
page, ``delete_if_present`` by raise and catch).  An insert of a key the
file holds raises before it touches a page.  After every operation the
results, the buffer stats, the disk counters, the frame order, the dirty
bits, the clock state, the key set and every page must agree.
"""

import copy
import random

import pytest

from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.storage.catalog import Catalog
from repro.storage.page import PageId
from repro.storage.record import CharField, IntField, Schema

SCHEMA = Schema([IntField("key"), CharField("payload", 256)])


# ----------------------------------------------------------------------
# the reference walk
# ----------------------------------------------------------------------
def _chain(hf, bucket):
    current = bucket
    while current is not None:
        yield current
        current = hf._overflow_next.get(current)


def ref_lookup(hf, key):
    for page_no in _chain(hf, hf._bucket(key)):
        page = hf.pool.fetch(PageId(hf.file_id, page_no))
        for record in page.record_batch():
            if record[hf._key_index] == key:
                return record
    return None


def ref_insert(hf, record):
    hf.schema.validate(record)
    key = record[hf._key_index]
    for page_no in _chain(hf, hf._bucket(key)):  # untouched: peeked pages
        page = hf.pool.disk.peek_page(PageId(hf.file_id, page_no))
        if any(existing[hf._key_index] == key for existing in page.record_batch()):
            raise DuplicateKeyError(key)
    size = hf.schema.record_size(record)
    hf._keys.add(key)
    last = None
    for page_no in _chain(hf, hf._bucket(key)):
        last = page_no
        page = hf.pool.writable(PageId(hf.file_id, page_no))
        if page.fits(size):
            page.insert(record, size)
            hf.pool.mark_dirty(page.page_id)
            hf._num_records += 1
            return
    overflow_no = hf._grab_overflow_page()
    page = hf.pool.writable(PageId(hf.file_id, overflow_no))
    page.insert(record, size)
    hf.pool.mark_dirty(page.page_id)
    hf._overflow_next[last] = overflow_no
    hf._num_records += 1


def ref_unlink(hf, prev, page_no, touch=True):
    """Recycle an emptied overflow page; ``touch=False`` drops the
    re-touch of that page (the mutation :func:`test_detects_a_dropped_touch`
    must catch)."""
    if prev is None or page_no < hf.buckets:
        return
    page_id = PageId(hf.file_id, page_no)
    page = hf.pool.fetch(page_id) if touch else hf.pool.disk.peek_page(page_id)
    if len(page):
        return
    nxt = hf._overflow_next.get(page_no)
    if nxt is not None:
        hf._overflow_next[prev] = nxt
        del hf._overflow_next[page_no]
    else:
        del hf._overflow_next[prev]
    hf._free_overflow.append(page_no)


def ref_delete(hf, key, touch=True):
    prev = None
    for page_no in _chain(hf, hf._bucket(key)):
        page_id = PageId(hf.file_id, page_no)
        page = hf.pool.writable(page_id)
        for slot, record in page.entries():
            if record[hf._key_index] == key:
                page.delete(slot)
                hf.pool.mark_dirty(page_id)
                hf._keys.discard(key)
                hf._num_records -= 1
                ref_unlink(hf, prev, page_no, touch)
                return record
        prev = page_no
    raise KeyNotFoundError(key)


def ref_delete_if_present(hf, key, touch=True):
    try:
        ref_delete(hf, key, touch)
        return True
    except KeyNotFoundError:
        return False


NEW = {
    "lookup": lambda hf, key: hf.lookup(key),
    "insert": lambda hf, record: hf.insert(record),
    "delete_if_present": lambda hf, key: hf.delete_if_present(key),
}
REFERENCE = {
    "lookup": ref_lookup,
    "insert": ref_insert,
    "delete_if_present": ref_delete_if_present,
}


# ----------------------------------------------------------------------
# twins
# ----------------------------------------------------------------------
def _catalog(policy):
    return Catalog(buffer_pages=4, page_size=2048, buffer_policy=policy)


def _twins(policy, frozen):
    """Two identical ``(catalog, hash file)`` pairs; with ``frozen``, two
    clones of one frozen, populated template."""
    if not frozen:
        pairs = []
        for _ in range(2):
            catalog = _catalog(policy)
            pairs.append((catalog, catalog.create_hash("hf", SCHEMA, "key", buckets=4)))
        return pairs
    template = _catalog(policy)
    hf = template.create_hash("hf", SCHEMA, "key", buckets=4)
    for key in range(0, 60, 2):
        hf.insert((key, "t" * (40 + key % 200)))
    template.pool.clear(flush=True)
    template.disk.freeze()
    pairs = []
    for _ in range(2):
        disk = template.disk
        clone = copy.deepcopy(template, {id(disk): disk.clone()})
        pairs.append((clone, clone.get("hf")))
    return pairs


def _state(catalog, hf):
    pool, disk = catalog.pool, catalog.disk
    pages = [
        (list(page.record_batch()), list(page._sizes), page.used_bytes)
        for page in map(disk.peek_page, disk.page_ids(hf.file_id))
    ]
    return (
        pool.stats.as_dict(),
        (disk.reads, disk.writes),
        list(pool._frames),
        [frame.dirty for frame in pool._frames.values()],
        dict(pool._referenced),
        list(pool._clock_ring),
        pool._clock_hand,
        list(hf._overflow_next.items()),
        list(hf._free_overflow),
        sorted(hf._keys),
        hf.num_records,
        pages,
    )


def _script(seed, n=600):
    """Operations over a small key space: an insert-heavy first third
    grows overflow chains (and meets duplicates), the delete-heavy
    rest empties overflow pages and deletes absent keys."""
    rng = random.Random(seed)
    ops = []
    for step in range(n):
        key = rng.randrange(120)
        if rng.random() < (0.7 if step < n // 3 else 0.15):
            ops.append(("insert", (key, "p" * rng.randrange(20, 256))))
        else:
            ops.append((rng.choice(("lookup", "delete_if_present")), key))
    return ops


def _apply(ops, hf, arg):
    try:
        return ("ok", ops(hf, arg))
    except (DuplicateKeyError, KeyNotFoundError) as exc:
        return ("raised", type(exc).__name__)


def run_twins(policy, frozen, seed, reference=REFERENCE):
    """Run the script on both twins; the first diverging step, or None."""
    (cat_a, hf_a), (cat_b, hf_b) = _twins(policy, frozen)
    assert _state(cat_a, hf_a) == _state(cat_b, hf_b)
    for step, (kind, arg) in enumerate(_script(seed)):
        got = _apply(NEW[kind], hf_a, arg)
        want = _apply(reference[kind], hf_b, arg)
        if got != want or _state(cat_a, hf_a) != _state(cat_b, hf_b):
            return step, kind, got, want
    return None


@pytest.mark.parametrize("frozen", [False, True], ids=["private", "frozen-clone"])
@pytest.mark.parametrize("policy", ["lru", "clock"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_walks_match_the_reference(policy, frozen, seed):
    assert run_twins(policy, frozen, seed) is None


@pytest.mark.parametrize("policy", ["lru", "clock"])
def test_script_covers_every_branch(policy):
    """The script grows overflow chains, unlinks emptied overflow pages,
    meets duplicate keys and deletes absent ones."""
    catalog = _catalog(policy)
    hf = catalog.create_hash("hf", SCHEMA, "key", buckets=4)
    outcomes = set()
    max_overflow = 0
    recycled = False
    for kind, arg in _script(0):
        got = _apply(NEW[kind], hf, arg)
        outcomes.add((kind, got[1] if kind == "delete_if_present" else got[0]))
        max_overflow = max(max_overflow, hf.overflow_pages())
        recycled = recycled or bool(hf._free_overflow)
    assert max_overflow >= 4
    assert recycled
    assert {
        ("insert", "raised"), ("delete_if_present", True), ("delete_if_present", False)
    } <= outcomes


def test_detects_a_dropped_touch():
    """The comparison is sharp: a reference walk that skips the re-touch
    of an emptied overflow page diverges."""
    dropped = dict(
        REFERENCE,
        delete_if_present=lambda hf, key: ref_delete_if_present(hf, key, touch=False),
    )
    assert run_twins("lru", False, 0, dropped) is not None
