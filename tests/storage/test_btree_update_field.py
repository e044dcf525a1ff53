"""Differential test of the one-route ``BTreeFile.update_field``.

Twin pools run one script of updates: one through ``update_field``, the
other through its definition, ``lookup_one`` then ``update`` with the
new record.  After every update the result (or the error), the buffer
stats, the disk counters, the frame order, the dirty bits, the clock
state, the route memo and every page must agree.  The script covers a
key's first probe (no memo), replayed probes, routes that end on a
leaf's last slot (the non-four-touch branch), absent keys, bad values,
and leaves frozen in a snapshot clone (copy-on-write), under lru and
clock.
"""

import copy
import random

import pytest

from repro.errors import StorageError
from repro.storage.btree import _LEAF_SHIFT, _SLOT_MASK
from repro.storage.catalog import Catalog
from repro.storage.record import CharField, IntField, Schema

SCHEMA = Schema([IntField("key"), IntField("value"), CharField("tag", 32)])
NUM_RECORDS = 1200


def reference_update_field(tree, key, field_name, value):
    old = tree.lookup_one(key)
    index = tree.schema.field_index(field_name)
    new_record = old[:index] + (value,) + old[index + 1:]
    tree.update(key, new_record)
    return new_record


def _records():
    return [(i, i % 97, "t%d" % (i % 13)) for i in range(NUM_RECORDS)]


def _catalog(policy):
    return Catalog(buffer_pages=5, page_size=512, buffer_policy=policy)


def _twins(policy, frozen):
    """Two identical ``(catalog, tree)`` pairs; with ``frozen``, two
    clones of one frozen template."""
    if not frozen:
        pairs = []
        for _ in range(2):
            catalog = _catalog(policy)
            tree = catalog.create_btree("t", SCHEMA, "key")
            tree.bulk_load(_records())
            catalog.pool.clear(flush=True)
            pairs.append((catalog, tree))
        return pairs
    template = _catalog(policy)
    template.create_btree("t", SCHEMA, "key").bulk_load(_records())
    template.pool.clear(flush=True)
    template.disk.freeze()
    pairs = []
    for _ in range(2):
        disk = template.disk
        clone = copy.deepcopy(template, {id(disk): disk.clone()})
        pairs.append((clone, clone.get("t")))
    return pairs


def _state(catalog, tree):
    pool, disk = catalog.pool, catalog.disk
    pages = [
        (list(page.record_batch()), list(page._sizes), page.used_bytes)
        for page in map(disk.peek_page, disk.page_ids(tree.file_id))
    ]
    return (
        pool.stats.as_dict(),
        (disk.reads, disk.writes),
        list(pool._frames),
        [frame.dirty for frame in pool._frames.values()],
        dict(pool._referenced),
        list(pool._clock_ring),
        pool._clock_hand,
        dict(tree._memo),
        dict(tree._memo.paths),
        pages,
    )


def _script(seed, n=300):
    """Updates over a few hot keys (replayed routes), fresh keys (first
    probes), absent keys and some bad values."""
    rng = random.Random(seed)
    hot = [rng.randrange(NUM_RECORDS) for _ in range(8)]
    ops = []
    for _ in range(n):
        roll = rng.random()
        key = rng.choice(hot) if roll < 0.4 else rng.randrange(-3, NUM_RECORDS + 3)
        if roll < 0.85:
            ops.append((key, "value", rng.randrange(1000)))
        elif roll < 0.93:
            ops.append((key, "tag", "x" * rng.randrange(40)))  # > 32: invalid
        elif roll < 0.97:
            ops.append((key, "key", key if rng.random() < 0.5 else key + 1))
        else:
            ops.append((key, "value", "not-an-int"))
    return ops


def _apply(update, tree, op):
    try:
        return ("ok", update(tree, *op))
    except StorageError as exc:
        return ("raised", type(exc).__name__, str(exc))


def _fused(tree, key, field_name, value):
    return tree.update_field(key, field_name, value)


def run_twins(policy, frozen, seed, reference=reference_update_field):
    """Run the script on both twins; the first diverging step, or None."""
    (cat_a, tree_a), (cat_b, tree_b) = _twins(policy, frozen)
    assert _state(cat_a, tree_a) == _state(cat_b, tree_b)
    for step, op in enumerate(_script(seed)):
        got = _apply(_fused, tree_a, op)
        want = _apply(reference, tree_b, op)
        if got != want or _state(cat_a, tree_a) != _state(cat_b, tree_b):
            return step, op, got, want
    tree_a.check_invariants()
    return None


@pytest.mark.parametrize("frozen", [False, True], ids=["private", "frozen-clone"])
@pytest.mark.parametrize("policy", ["lru", "clock"])
@pytest.mark.parametrize("seed", [0, 1])
def test_update_field_matches_lookup_one_then_update(policy, frozen, seed):
    assert run_twins(policy, frozen, seed) is None


def test_script_takes_both_read_branches():
    """Replayed routes with and without the four-touch flag occur, and
    keys are probed for the first time."""
    (catalog, tree), _ = _twins("lru", False)
    first, flags = 0, set()
    for op in _script(0):
        key = op[0]
        route = tree._memo.get(key)
        if route is None:
            first += 1
        else:
            flags.add(route & 1)
        _apply(_fused, tree, op)
    assert first > 0
    assert flags == {0, 1}
    slots = {route >> 1 & _SLOT_MASK for route in tree._memo.values()}
    leaves = {route >> _LEAF_SHIFT for route in tree._memo.values()}
    assert len(leaves) > 1 and len(slots) > 1


def test_detects_a_dropped_touch():
    """The comparison is sharp: a reference that skips the write descent's
    replay (keeping only the writable leaf touch) diverges."""

    def without_write_descent(tree, key, field_name, value):
        old = tree.lookup_one(key)
        index = tree.schema.field_index(field_name)
        new_record = old[:index] + (value,) + old[index + 1:]
        route = tree._memo[key]
        page = tree._fetch_writable(route >> _LEAF_SHIFT)
        size = tree.schema.record_size(new_record)
        tree._rewrite(page, route >> 1 & _SLOT_MASK, new_record, size)
        return new_record

    assert run_twins("lru", False, 0, without_write_descent) is not None
