"""Hypothesis state machines for every storage engine.

Each machine drives random operation sequences against one engine (or
the snapshot/clone layer), applies the same sequence to a reference
model from :mod:`repro.oracle.reference`, compares every read, and runs
the engine's ``check_invariants()`` hook after every step via
``@invariant``.  Geometry is deliberately tiny — 128-byte pages, a
handful of buffer frames, four hash buckets — so multi-level trees,
overflow chains and evictions happen within a few dozen rules.

The key domain is small (0..199) on purpose: collisions are what
exercise duplicate handling, deletes of present keys, and hash-chain
reuse.  Records are ``(key, value)`` int pairs throughout.

:class:`CrashConsistencyMachine` layers fault-interleaved rules on top:
a rule may arm a seeded :class:`~repro.fault.plan.FaultPlan` over the
disk sites, after which any operation may die mid-flight with
:class:`~repro.errors.FaultInjected` — potentially leaving a torn
engine (a hash delete that unlinks an emptied overflow page is not
atomic).  The machine then models what
the sweep layer does in production (PR 4's history-independent retry):
declare the working clone crashed, re-attach a fresh clone from the
last durable snapshot, and verify the recovered store equals the
durable reference model exactly.  Commits freeze the working clone into
a new durable snapshot through the checksummed
:class:`~repro.storage.snapshot.SnapshotStore`, and a reload rule
corrupts the stored bytes (``snapshot.load``) to drive the
quarantine-and-rebuild path.
"""

from __future__ import annotations

import copy
import shutil
import tempfile
from typing import Any, List, Optional, Tuple

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import (
    DuplicateKeyError,
    FaultInjected,
    FrozenPageError,
    KeyNotFoundError,
)
from repro.fault import plan as _fault
from repro.fault.plan import FaultPlan, FaultSpec
from repro.oracle.invariants import check_all
from repro.oracle.reference import KeyedModel, SqliteMirror
from repro.storage import arena as _arena
from repro.storage.catalog import Catalog
from repro.storage.heap import HeapFile
from repro.storage.page import PageId
from repro.storage.record import IntField, Schema
from repro.storage.snapshot import Snapshot, SnapshotStore

#: Small domains: collisions and re-deletes must be common.
KEYS = st.integers(min_value=0, max_value=199)
VALUES = st.integers(min_value=0, max_value=2**20)

#: Tiny geometry: ~8 int records per 128-byte page, 8 frames.
PAGE_SIZE = 128
BUFFER_PAGES = 8
HASH_BUCKETS = 4


def kv_schema() -> Schema:
    return Schema([IntField("key"), IntField("value")])


def _sorted_records(keys) -> List[Tuple[int, int]]:
    return [(key, key * 3) for key in sorted(keys)]


class BTreeMachine(RuleBasedStateMachine):
    """Static B-tree vs dict vs sqlite, with per-step tree invariants.

    The tree is bulk-loaded once; rules then interleave in-place updates
    (``update_field`` and ``update``) with point probes, batches of
    unsorted probes (replayed from remembered routes), merge walks of
    sorted probes and range scans.
    """

    def __init__(self) -> None:
        super().__init__()
        self.catalog = Catalog(BUFFER_PAGES, PAGE_SIZE)
        self.tree = self.catalog.create_btree("t", kv_schema(), "key")
        self.model = KeyedModel()
        self.mirror = SqliteMirror()

    def teardown(self) -> None:
        self.mirror.close()

    @initialize(keys=st.sets(KEYS, max_size=80))
    def bulk_seed(self, keys) -> None:
        records = _sorted_records(keys)
        self.tree.bulk_load(records)
        for key, value in records:
            self.model.insert(key, (key, value))
            self.mirror.insert(key, (key, value))

    def _expect(self, keys) -> List[Tuple[int, int]]:
        return [record for record in map(self.model.get, keys) if record is not None]

    @rule(key=KEYS, value=VALUES)
    def update_field(self, key: int, value: int) -> None:
        if self.model.get(key) is None:
            try:
                self.tree.update_field(key, "value", value)
            except KeyNotFoundError:
                return
            raise AssertionError("update_field(%r) succeeded on absent key" % key)
        record = self.tree.update_field(key, "value", value)
        assert record == (key, value)
        self.model.replace(key, record)
        self.mirror.replace(key, record)

    @rule(key=KEYS, value=VALUES)
    def update(self, key: int, value: int) -> None:
        record = (key, value)
        if self.model.get(key) is None:
            try:
                self.tree.update(key, record)
            except KeyNotFoundError:
                return
            raise AssertionError("update(%r) succeeded on absent key" % key)
        self.tree.update(key, record)
        self.model.replace(key, record)
        self.mirror.replace(key, record)

    @rule(key=KEYS)
    def lookup(self, key: int) -> None:
        got = self.tree.lookup(key)
        expected = self.model.get(key)
        assert got == ([expected] if expected is not None else []), (
            "lookup(%r) = %r, model has %r" % (key, got, expected)
        )
        assert self.mirror.get(key) == expected

    @rule(keys=st.lists(KEYS, max_size=12))
    def probe_many(self, keys) -> None:
        assert self.tree.probe_many(keys) == self._expect(keys)

    @rule(keys=st.lists(KEYS, max_size=24), size=st.integers(1, 8))
    def merge_walk(self, keys, size: int) -> None:
        keys = sorted(keys)
        batches = [keys[i : i + size] for i in range(0, len(keys), size)]
        assert list(self.tree.merge_walk(batches)) == self._expect(keys)

    @rule(lo=KEYS, hi=KEYS)
    def range_scan(self, lo: int, hi: int) -> None:
        if lo > hi:
            lo, hi = hi, lo
        got = list(self.tree.range_scan(lo, hi))
        assert got == self.model.range(lo, hi), "range [%d, %d] diverged" % (lo, hi)
        assert got == self.mirror.range(lo, hi)

    @invariant()
    def scan_agrees(self) -> None:
        assert list(self.tree.scan()) == self.model.records()

    @invariant()
    def engine_well_formed(self) -> None:
        check_all(self.catalog)


class HashMachine(RuleBasedStateMachine):
    """Hash file vs dict vs sqlite, chains checked per step."""

    def __init__(self) -> None:
        super().__init__()
        self.catalog = Catalog(BUFFER_PAGES, PAGE_SIZE)
        self.hash = self.catalog.create_hash("h", kv_schema(), "key", HASH_BUCKETS)
        self.model = KeyedModel()
        self.mirror = SqliteMirror()

    def teardown(self) -> None:
        self.mirror.close()

    @rule(key=KEYS, value=VALUES)
    def insert(self, key: int, value: int) -> None:
        record = (key, value)
        duplicate = self.model.get(key) is not None
        try:
            self.hash.insert(record)
        except DuplicateKeyError:
            assert duplicate, "hash rejected fresh key %r as duplicate" % key
        else:
            assert not duplicate, "hash accepted duplicate key %r" % key
            self.model.insert(key, record)
            self.mirror.insert(key, record)

    @rule(key=KEYS)
    def delete(self, key: int) -> None:
        removed = self.hash.delete_if_present(key)
        expected = self.model.delete(key)
        self.mirror.delete(key)
        assert removed == (expected is not None)

    @rule(key=KEYS)
    def lookup(self, key: int) -> None:
        got = self.hash.lookup(key)
        expected = self.model.get(key)
        assert got == expected, "lookup(%r) = %r, model has %r" % (key, got, expected)
        assert self.mirror.get(key) == expected

    @rule()
    def truncate(self) -> None:
        self.hash.truncate()
        self.model.clear()
        self.mirror.clear()
        assert self.hash.num_pages == HASH_BUCKETS
        assert self.hash.overflow_pages() == 0

    @invariant()
    def scan_agrees(self) -> None:
        # Bucket order is not key order; compare as sorted multisets.
        assert sorted(self.hash.scan()) == sorted(self.model.records())
        assert len(self.hash) == len(self.model)

    @invariant()
    def engine_well_formed(self) -> None:
        check_all(self.catalog)


class HeapMachine(RuleBasedStateMachine):
    """Heap file vs a list of its records in insertion order."""

    def __init__(self) -> None:
        super().__init__()
        self.catalog = Catalog(BUFFER_PAGES, PAGE_SIZE)
        self.heap = HeapFile(self.catalog.pool, kv_schema(), "h")
        self.model: List[Tuple[int, int]] = []
        self._next = 0

    def _record(self, value: int) -> Tuple[int, int]:
        self._next += 1
        return (self._next, value)

    @rule(value=VALUES)
    def insert(self, value: int) -> None:
        record = self._record(value)
        self.heap.insert(record)
        self.model.append(record)

    @rule(values=st.lists(VALUES, max_size=12))
    def insert_many(self, values) -> None:
        records = [self._record(value) for value in values]
        # The literal reference: one insert() per record on a private twin.
        twin, twin_heap = copy.deepcopy((self.catalog, self.heap))
        for record in records:
            twin_heap.insert(record)
        count = self.heap.insert_many(records)
        assert count == len(records)
        pool = self.catalog.pool
        assert pool.stats.as_dict() == twin.pool.stats.as_dict()
        assert list(pool._frames) == list(twin.pool._frames)  # eviction order
        assert self.catalog.io_snapshot() == twin.io_snapshot()
        assert self.heap.num_pages == twin_heap.num_pages
        self.model.extend(records)

    @rule()
    def truncate(self) -> None:
        self.heap.truncate()
        self.model.clear()
        assert self.heap.num_pages == 0

    @invariant()
    def scan_agrees(self) -> None:
        assert list(self.heap.scan()) == self.model
        assert len(self.heap) == len(self.model)

    @invariant()
    def engine_well_formed(self) -> None:
        self.heap.check_invariants()
        check_all(self.catalog)


class _OracleStore:
    """A minimal multi-relation database for the snapshot machines.

    Duck-types the two members :meth:`Snapshot.freeze` needs
    (``start_measurement`` and ``disk``) over a catalog holding one
    B-tree and one hash file, so the oracle exercises the real
    freeze/attach/COW machinery without building a workload database.
    """

    def __init__(self) -> None:
        self.catalog = Catalog(BUFFER_PAGES, PAGE_SIZE)
        self.disk = self.catalog.disk
        self.pool = self.catalog.pool
        self.tree = self.catalog.create_btree("t", kv_schema(), "key")
        self.hash = self.catalog.create_hash("h", kv_schema(), "key", HASH_BUCKETS)

    def start_measurement(self, cold: bool = True) -> None:
        if cold:
            self.pool.clear(flush=True)
        self.disk.reset_counters()
        self.pool.stats.reset()


class _CloneState:
    """One attached clone plus its private reference models."""

    __slots__ = ("store", "tree_model", "hash_model")

    def __init__(self, store, tree_model, hash_model) -> None:
        self.store = store
        self.tree_model = tree_model
        self.hash_model = hash_model


class SnapshotMachine(RuleBasedStateMachine):
    """COW clone isolation: clones diverge, template and siblings don't.

    Freezes a seeded store into a template, persists it through a
    :class:`SnapshotStore`, attaches up to four clones — each drawn
    from either the frozen template or the stored arena, so
    copy-on-write runs over in-memory pages and mmap-backed stubs alike
    — mutates them independently, and asserts after every step that the
    template still matches the frozen-time model, every clone matches
    its own model, frozen template pages refuse direct mutation, and
    all catalogs stay well-formed.
    """

    MAX_CLONES = 4

    def __init__(self) -> None:
        super().__init__()
        self.tmpdir = tempfile.mkdtemp(prefix="repro-oracle-")
        self.store = SnapshotStore(self.tmpdir, fingerprint="oracle")
        self.template: Optional[Snapshot] = None
        self.template_tree: Optional[KeyedModel] = None
        self.template_hash: Optional[KeyedModel] = None
        self.clones: List[_CloneState] = []

    def teardown(self) -> None:
        self.store.clear()  # drops the registry's mapping of the arena
        shutil.rmtree(self.tmpdir, ignore_errors=True)

    @initialize(keys=st.sets(KEYS, max_size=25))
    def freeze_template(self, keys) -> None:
        base = _OracleStore()
        tree_model = KeyedModel()
        hash_model = KeyedModel()
        records = _sorted_records(keys)
        base.tree.bulk_load(records)
        for key, value in records:
            tree_model.insert(key, (key, value))
            base.hash.insert((key, value))
            hash_model.insert(key, (key, value))
        self.template = Snapshot.freeze(base)
        self.store.put("db", self.template)
        self.template_tree = tree_model
        self.template_hash = hash_model

    @precondition(lambda self: len(self.clones) < SnapshotMachine.MAX_CLONES)
    @rule(from_arena=st.booleans())
    def spawn_clone(self, from_arena: bool) -> None:
        source = self.store.get("db") if from_arena else self.template
        assert isinstance(source, _arena.ArenaSnapshot) == from_arena
        clone = source.attach()
        self.clones.append(
            _CloneState(
                clone, self.template_tree.copy(), self.template_hash.copy()
            )
        )

    def _pick(self, data) -> _CloneState:
        return data.draw(st.sampled_from(self.clones), label="clone")

    @precondition(lambda self: self.clones)
    @rule(data=st.data(), key=KEYS, value=VALUES)
    def clone_tree_update(self, data, key: int, value: int) -> None:
        """``update_field`` on a clone: copy-on-write of one leaf."""
        clone = self._pick(data)
        try:
            record = clone.store.tree.update_field(key, "value", value)
        except KeyNotFoundError:
            assert clone.tree_model.get(key) is None
        else:
            assert record == (key, value)
            assert clone.tree_model.replace(key, record)

    @precondition(lambda self: self.clones)
    @rule(data=st.data(), keys=st.lists(KEYS, max_size=8))
    def clone_tree_lookup(self, data, keys) -> None:
        """Probe a clone, then the template, twice each: the second pass
        replays remembered routes, which a clone shares with the template
        (an arena-loaded clone starts with none)."""
        clone = self._pick(data)
        for tree, model in (
            (clone.store.tree, clone.tree_model),
            (self.template._db.tree, self.template_tree),
        ):
            want = [record for record in map(model.get, keys) if record is not None]
            for _ in range(2):
                assert tree.probe_many(keys) == want

    @precondition(lambda self: self.clones)
    @rule(data=st.data(), key=KEYS, value=VALUES)
    def clone_hash_replace(self, data, key: int, value: int) -> None:
        clone = self._pick(data)
        record = (key, value)
        clone.store.hash.delete_if_present(key)
        clone.store.hash.insert(record)
        if not clone.hash_model.replace(key, record):
            clone.hash_model.insert(key, record)

    @precondition(lambda self: self.clones)
    @rule(data=st.data(), key=KEYS)
    def clone_hash_delete(self, data, key: int) -> None:
        clone = self._pick(data)
        removed = clone.store.hash.delete_if_present(key)
        assert removed == (clone.hash_model.delete(key) is not None)

    @precondition(lambda self: self.template is not None)
    @rule()
    def template_refuses_direct_mutation(self) -> None:
        disk = self.template._db.disk
        tree = self.template._db.tree
        for page_no in range(disk.num_pages(tree.file_id)):
            page = disk.peek_page(PageId(tree.file_id, page_no))
            if len(page):
                try:
                    page.delete(0)
                except FrozenPageError:
                    return
                raise AssertionError("frozen template page accepted a delete")
        # An all-empty template tree has nothing to refuse; that's fine.

    @invariant()
    def template_unchanged(self) -> None:
        if self.template is None:
            return
        template_db = self.template._db
        assert list(template_db.tree.scan()) == self.template_tree.records()
        assert sorted(template_db.hash.scan()) == sorted(
            self.template_hash.records()
        )

    @invariant()
    def clones_isolated(self) -> None:
        for clone in self.clones:
            assert list(clone.store.tree.scan()) == clone.tree_model.records()
            assert sorted(clone.store.hash.scan()) == sorted(
                clone.hash_model.records()
            )
            check_all(clone.store.catalog)


#: The disk-level fault sites a crash-consistency run may arm.
DISK_SITES = ("disk.read", "disk.torn", "disk.write")


class CrashConsistencyMachine(RuleBasedStateMachine):
    """Fault-interleaved rules with recovery checked against the model.

    State is two-tier, mirroring the sweep layer: a *durable* frozen
    snapshot (also persisted through a checksummed
    :class:`SnapshotStore`) plus its reference model, and a *working*
    clone — attached from the handle the store serves, mmap-backed stub
    pages and all — with a working model.  Operations run against the
    working clone; while a fault plan is armed any of them may raise
    :class:`FaultInjected` mid-mutation.  That is treated as a crash:
    the torn clone is discarded, a fresh clone is attached from the
    stored durable snapshot, and the recovered store must equal the
    durable model exactly.  ``commit`` quiesces faults and promotes the
    working state to a new durable snapshot; ``reload_durable_from_store``
    round-trips the durable snapshot through disk, optionally under a
    ``snapshot.load`` corruption, asserting corrupt bytes are always
    quarantined (never served) and clean bytes reproduce the model.
    """

    def __init__(self) -> None:
        super().__init__()
        self.tmpdir = tempfile.mkdtemp(prefix="repro-oracle-")
        self.store = SnapshotStore(self.tmpdir, fingerprint="oracle")
        self.durable: Optional[Snapshot] = None
        self.served: Optional[Any] = None
        self.durable_tree = KeyedModel()
        self.durable_hash = KeyedModel()
        self.working: Optional[Any] = None
        self.work_tree = KeyedModel()
        self.work_hash = KeyedModel()
        self.armed = False
        self.crashes = 0
        self.commits = 0

    def teardown(self) -> None:
        _fault.clear()
        self.store.clear()  # drops the registry's mapping of the arena
        shutil.rmtree(self.tmpdir, ignore_errors=True)

    @initialize(keys=st.sets(KEYS, max_size=25))
    def seed(self, keys) -> None:
        base = _OracleStore()
        records = _sorted_records(keys)
        base.tree.bulk_load(records)
        for key, value in records:
            self.durable_tree.insert(key, (key, value))
            base.hash.insert((key, value))
            self.durable_hash.insert(key, (key, value))
        self.durable = Snapshot.freeze(base)
        self._put_durable()
        self._restart_working()

    def _put_durable(self) -> None:
        """Persist the durable snapshot and hold the handle ``put``
        returns, as the sweep's database cache does: the registry maps
        weakly, so only a live mapping can answer for replaced bytes."""
        self.served = self.store.put("db", self.durable)

    def _restart_working(self) -> None:
        """A fresh working clone (and model) of the durable state.

        Attached from what the store serves after a ``put``, not from
        the builder's own snapshot — the sweep layer does the same — so
        a store that kept serving replaced bytes shows up here.
        """
        self.working = self.store.get("db").attach()
        self.work_tree = self.durable_tree.copy()
        self.work_hash = self.durable_hash.copy()

    # ------------------------------------------------------------------
    # fault plumbing
    # ------------------------------------------------------------------
    @rule(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.sampled_from([0.05, 0.25, 1.0]),
        sites=st.sets(st.sampled_from(DISK_SITES), min_size=1),
        count=st.integers(min_value=1, max_value=3),
    )
    def arm_faults(self, seed: int, rate: float, sites, count: int) -> None:
        _fault.install(
            FaultPlan(
                [FaultSpec(site, rate=rate, count=count) for site in sorted(sites)],
                seed=seed,
            )
        )
        self.armed = True

    @rule()
    def disarm_faults(self) -> None:
        _fault.clear()
        self.armed = False

    def _crash_recover(self) -> None:
        """A mid-operation fault crashed the working clone: recover."""
        _fault.clear()
        self.armed = False
        self.crashes += 1
        self._restart_working()
        # Recovery contract: the re-attached store IS the durable state.
        assert list(self.working.tree.scan()) == self.durable_tree.records()
        assert sorted(self.working.hash.scan()) == sorted(
            self.durable_hash.records()
        )
        check_all(self.working.catalog)

    # ------------------------------------------------------------------
    # operations on the working clone (any may crash while armed)
    # ------------------------------------------------------------------
    @rule(key=KEYS, value=VALUES)
    def tree_update(self, key: int, value: int) -> None:
        present = self.work_tree.get(key) is not None
        try:
            record = self.working.tree.update_field(key, "value", value)
        except FaultInjected:
            self._crash_recover()
            return
        except KeyNotFoundError:
            assert not present
            return
        assert present
        self.work_tree.replace(key, record)

    @rule(key=KEYS, value=VALUES)
    def tree_rewrite(self, key: int, value: int) -> None:
        present = self.work_tree.get(key) is not None
        record = (key, value)
        try:
            self.working.tree.update(key, record)
        except FaultInjected:
            self._crash_recover()
            return
        except KeyNotFoundError:
            assert not present
            return
        assert present
        self.work_tree.replace(key, record)

    @rule(key=KEYS, value=VALUES)
    def hash_replace(self, key: int, value: int) -> None:
        record = (key, value)
        try:
            self.working.hash.delete_if_present(key)
            self.working.hash.insert(record)
        except FaultInjected:
            self._crash_recover()
            return
        if not self.work_hash.replace(key, record):
            self.work_hash.insert(key, record)

    @rule(key=KEYS)
    def hash_delete(self, key: int) -> None:
        try:
            removed = self.working.hash.delete_if_present(key)
        except FaultInjected:
            self._crash_recover()
            return
        assert removed == (self.work_hash.delete(key) is not None)

    # ------------------------------------------------------------------
    # durability boundary
    # ------------------------------------------------------------------
    @rule()
    def commit(self) -> None:
        """Quiesce faults and promote the working state to durable."""
        _fault.clear()
        self.armed = False
        self.durable = Snapshot.freeze(self.working)
        self.durable_tree = self.work_tree.copy()
        self.durable_hash = self.work_hash.copy()
        self._put_durable()
        self._restart_working()
        self.commits += 1

    @precondition(lambda self: not self.armed)
    @rule(corrupt=st.booleans())
    def reload_durable_from_store(self, corrupt: bool) -> None:
        """Cold-read the durable snapshot, optionally under corruption.

        A fresh store instance and a discarded registry entry force the
        on-disk path, as in a cold process (a mapping the writer still
        holds would otherwise answer).  Corrupt bytes must be
        detected, quarantined and reported as a miss — never served —
        after which the deterministic rebuild (re-``put`` of the live
        durable snapshot) must restore the cache.  A clean read must
        reproduce the durable model bit for bit.
        """
        reader = SnapshotStore(self.tmpdir, fingerprint="oracle")
        _arena.registry().discard(reader._arena_path("db"))
        if corrupt:
            _fault.install(
                FaultPlan([FaultSpec("snapshot.load", rate=1.0, count=1)], seed=1)
            )
        try:
            loaded = reader.get("db")
        finally:
            _fault.clear()
        if corrupt:
            assert loaded is None, "corrupted snapshot bytes were served"
            assert reader.stats["corrupt"] == 1
            self._put_durable()  # deterministic rebuild
            return
        assert loaded is not None, "clean stored snapshot failed to load"
        revived = loaded.attach()
        assert list(revived.tree.scan()) == self.durable_tree.records()
        assert sorted(revived.hash.scan()) == sorted(self.durable_hash.records())

    # ------------------------------------------------------------------
    # per-step verification (only when quiescent: scans may fault)
    # ------------------------------------------------------------------
    @invariant()
    def working_agrees_when_quiescent(self) -> None:
        if self.armed or self.working is None:
            return
        assert list(self.working.tree.scan()) == self.work_tree.records()
        assert sorted(self.working.hash.scan()) == sorted(
            self.work_hash.records()
        )
        check_all(self.working.catalog)


#: Registry used by the fuzz CLI and the stateful test modules.
MACHINES = {
    "btree": BTreeMachine,
    "hash": HashMachine,
    "heap": HeapMachine,
    "snapshot": SnapshotMachine,
    "crash": CrashConsistencyMachine,
}
