"""ComplexObjectDB: accessors, updates, lifecycle."""

import pytest

from repro.errors import WorkloadError
from repro.workload.generator import build_database


class TestStructure:
    def test_cardinalities_match_equation_one(self, tiny_db, tiny_params):
        # |ChildRel| = |ParentRel| * SizeUnit / ShareFactor  (eqn. 1)
        assert tiny_db.num_parents == tiny_params.num_parents
        expected_children = round(
            tiny_params.num_parents
            * tiny_params.size_unit
            / tiny_params.share_factor
        )
        assert abs(tiny_db.num_children - expected_children) <= tiny_params.size_unit

    def test_units_have_expected_use_factor(self, tiny_db, tiny_params):
        uses = [len(u.parents) for u in tiny_db.units if u.parents]
        assert sum(uses) == tiny_params.num_parents
        mean_use = sum(uses) / len(uses)
        assert abs(mean_use - tiny_params.use_factor) < 1.5

    def test_every_parent_has_a_unit(self, tiny_db):
        for parent_key, unit_id in tiny_db.unit_of_parent.items():
            unit = tiny_db.units[unit_id]
            assert parent_key in unit.parents

    def test_children_field_matches_unit(self, tiny_db):
        parent = tiny_db.fetch_parent(0)
        rel_index, keys = tiny_db.unit_ref_of(parent)
        unit = tiny_db.units[tiny_db.unit_of_parent[0]]
        assert unit.child_rel == rel_index
        assert unit.child_keys == keys

    def test_parents_in_range(self, tiny_db):
        records = list(tiny_db.parents_in_range(5, 14))
        assert [tiny_db.parent_key_of(r) for r in records] == list(range(5, 15))

    def test_fetch_child(self, tiny_db):
        parent = tiny_db.fetch_parent(3)
        oid = tiny_db.children_of(parent)[0]
        child = tiny_db.fetch_child(oid.rel - 1, oid.key)
        assert child[0] == oid.key

    def test_storage_footprint(self, tiny_db):
        footprint = tiny_db.storage_footprint()
        assert footprint["ParentRel"] > 0
        assert footprint["ChildRel"] > 0
        assert "ClusterRel" in footprint


class TestTupleSizes:
    def test_parent_tuples_near_200_bytes(self, tiny_db, tiny_params):
        parent = tiny_db.fetch_parent(0)
        size = tiny_db.parent_schema.record_size(parent)
        assert abs(size - tiny_params.parent_bytes) <= 8

    def test_child_tuples_near_100_bytes(self, tiny_db, tiny_params):
        parent = tiny_db.fetch_parent(0)
        oid = tiny_db.children_of(parent)[0]
        child = tiny_db.fetch_child(oid.rel - 1, oid.key)
        size = tiny_db.child_schema.record_size(child)
        assert abs(size - tiny_params.child_bytes) <= 8


class TestUpdates:
    def test_base_update(self, tiny_db_plain):
        db = tiny_db_plain
        db.apply_update([(0, 1)], 777)
        assert db.fetch_child(0, 1)[1] == 777

    def test_cluster_update(self, tiny_db):
        tiny_db.apply_update([(0, 1)], 888, through_cluster=True)
        record = tiny_db.cluster.fetch_subobject(0, 1)
        assert record[2] == 888
        # The base ChildRel copy is untouched (ClusterRel replaces it).
        assert tiny_db.fetch_child(0, 1)[1] != 888

    def test_update_invalidates_cache(self, tiny_db):
        db = tiny_db
        parent = db.fetch_parent(0)
        rel_index, keys = db.unit_ref_of(parent)
        from repro.core.cache import unit_hashkey

        hk = unit_hashkey(rel_index, keys)
        payload = tuple(db.fetch_child(rel_index, k) for k in keys)
        db.cache.insert(hk, rel_index, keys, payload, 500)
        db.apply_update([(rel_index, keys[0])], 1, invalidate_cache=True)
        assert not db.cache.contains(hk)


class TestLifecycle:
    def test_cache_requires_enabling(self, tiny_db_plain):
        with pytest.raises(WorkloadError):
            tiny_db_plain.require_cache()

    def test_cluster_requires_enabling(self, tiny_db_plain):
        with pytest.raises(WorkloadError):
            tiny_db_plain.require_cluster()

    def test_double_enable_rejected(self, tiny_db):
        with pytest.raises(WorkloadError):
            tiny_db.enable_cache(10, 500)

    def test_start_measurement_resets(self, tiny_db_plain):
        db = tiny_db_plain
        list(db.parents_in_range(0, 50))
        db.start_measurement()
        assert db.disk.snapshot().total == 0
        assert db.pool.stats.hits + db.pool.stats.misses == 0
        assert len(db.pool) == 0

    def test_reset_cache(self, tiny_db):
        db = tiny_db
        db.cache.insert(123, 0, (1,), ((1, 2, 3, 4, "d"),), 100)
        db.reset_cache()
        assert db.cache.num_cached == 0
