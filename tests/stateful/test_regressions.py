"""Shrunk counterexamples from fuzz campaigns, frozen as plain tests.

Each test replays an exact operation sequence Hypothesis shrank from a
failing campaign, so the bug stays fixed even if the example corpus is
pruned.  Keep these independent of a Hypothesis run: no strategies, no
example database — just the sequence (a machine's rules are plain
methods and can be called in order).
"""

from __future__ import annotations

from repro.storage.catalog import Catalog
from repro.storage.record import IntField, Schema

PAGE_SIZE = 128  # the stateful machines' tiny geometry


def _tree(unique: bool = True):
    catalog = Catalog(buffer_pages=8, page_size=PAGE_SIZE)
    schema = Schema([IntField("key"), IntField("value")])
    return catalog.create_btree("t", schema, "key", unique=unique)


def test_btree_stale_low_fence_separator_order():
    """Shrunk by ``repro fuzz --machine btree --seed 1`` (deep profile).

    Bulk-loading one full leaf and then inserting keys below the bulk
    minimum routed them into child 0 without lowering the parent's
    entry-0 separator.  The next split of that leaf emitted separator 4
    — equal to the stale fence — breaking strict separator order; one
    more split could place a *smaller* separator before the stale
    entry, making resident keys unreachable.
    """
    tree = _tree()
    tree.bulk_load([(k, k * 3) for k in sorted({4, 6, 7, 9, 10, 11, 12, 13})])
    for key in (5, 0, 1, 2, 3, 8):
        tree.insert((key, 0))
        tree.check_invariants()
    present = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
    assert [record[0] for record in tree.scan()] == sorted(present)
    for key in present:
        assert tree.lookup(key), "key %r unreachable after splits" % key


def test_btree_low_fence_maintained_through_repeated_splits():
    """The same stale-fence defect, driven until the leftmost leaf
    splits repeatedly (the variant that loses keys, not just ordering):
    descend-time fence maintenance must keep every key reachable."""
    tree = _tree()
    tree.bulk_load([(k, k * 3) for k in range(100, 140, 5)])
    for key in range(99, -1, -1):  # descending inserts, all below the fence
        tree.insert((key, key))
        tree.check_invariants()
    for key in range(100):
        assert tree.lookup(key) == [(key, key)]


def test_btree_root_split_after_leftmost_leaf_emptied():
    """Deletes may empty the leftmost leaf (lazy deletion keeps the
    page).  A later root split used to take the subtree's lower bound
    by descending to that empty leaf, yielding a ``None`` separator
    that poisons every subsequent ``bisect`` comparison.  Internal
    nodes now answer with their first separator instead."""
    tree = _tree()
    tree.bulk_load([(k, k) for k in range(0, 64, 2)])  # several leaves
    assert tree.height >= 2
    # Empty the leftmost leaf: delete the smallest keys.
    for key in range(0, 16, 2):
        assert tree.delete_if_present(key)
        tree.check_invariants()
    # Grow until the root splits again (height increases).
    height = tree.height
    key = 200
    while tree.height == height:
        tree.insert((key, key))
        tree.check_invariants()
        key += 1
    survivors = sorted(set(range(16, 64, 2)) | set(range(200, key)))
    assert [record[0] for record in tree.scan()] == survivors


def _replay_crash_machine(steps):
    """Run ``steps`` (callables on the machine) the way Hypothesis
    would: the per-step invariant after each, ``teardown`` at the end."""
    from repro.oracle.machines import CrashConsistencyMachine

    machine = CrashConsistencyMachine()
    try:
        for step in steps:
            step(machine)
            machine.working_agrees_when_quiescent()
    finally:
        machine.teardown()


def test_crash_machine_commit_over_a_mapped_arena_serves_new_bytes():
    """Shrunk from the crash machine's first run on the arena store.

    ``seed`` maps the durable arena; ``commit`` replaces the file under
    the same key.  The process-wide arena registry kept answering with
    the mapping of the replaced inode, so the store's memory tier and
    the reload both served the pre-delete hash contents.
    """
    _replay_crash_machine(
        [
            lambda m: m.seed({0}),
            lambda m: m.hash_delete(0),
            lambda m: m.commit(),
            lambda m: m.reload_durable_from_store(corrupt=False),
        ]
    )


def test_crash_machine_corrupt_reload_is_a_cold_read():
    """Shrunk from the same run: a ``snapshot.load`` corruption only
    fires when the file is actually parsed.  With the writer's mapping
    still registered the reload never touched the disk, so "corrupted
    snapshot bytes were served" — the rule must drop the registry entry
    to be the cold process it models."""
    _replay_crash_machine(
        [
            lambda m: m.seed(set()),
            lambda m: m.reload_durable_from_store(corrupt=True),
        ]
    )
