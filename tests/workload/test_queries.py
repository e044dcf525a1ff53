"""Query-sequence generation."""

import pytest

from repro.core.queries import RetrieveQuery, UpdateQuery
from repro.util.rng import derive_rng
from repro.workload.queries import (
    generate_mixed_sequence,
    generate_sequence,
    random_retrieve,
    random_update,
)
from repro.workload.params import WorkloadParams


def params(**kw):
    defaults = dict(num_parents=500, num_top=20, num_queries=50, seed=3)
    defaults.update(kw)
    return WorkloadParams(**defaults)


class TestRandomRetrieve:
    def test_span_and_bounds(self):
        point = params()
        rng = derive_rng(1)
        for _ in range(200):
            q = random_retrieve(point, rng)
            assert q.num_top == 20
            assert 0 <= q.lo <= q.hi < point.num_parents

    def test_attrs_mixed(self):
        point = params()
        rng = derive_rng(1)
        attrs = {random_retrieve(point, rng).attr for _ in range(100)}
        assert attrs == {"ret1", "ret2", "ret3"}

    def test_override_num_top(self):
        q = random_retrieve(params(), derive_rng(1), num_top=500)
        assert q.num_top == 500

    def test_num_top_clamped_to_parents(self):
        q = random_retrieve(params(), derive_rng(1), num_top=9999)
        assert q.num_top == 500


class TestRandomUpdate:
    def test_size_and_bounds(self):
        point = params(update_size=7)
        rng = derive_rng(1)
        update = random_update(point, [100, 50], rng)
        assert update.size == 7
        for rel_index, key in update.refs:
            assert rel_index in (0, 1)
            assert key < (100 if rel_index == 0 else 50)


class TestSequences:
    def test_retrieve_count_exact(self):
        seq = generate_sequence(params(pr_update=0.4))
        assert sum(isinstance(op, RetrieveQuery) for op in seq) == 50

    def test_update_fraction_approximate(self):
        seq = generate_sequence(params(pr_update=0.5, num_queries=300))
        updates = sum(isinstance(op, UpdateQuery) for op in seq)
        assert updates / len(seq) == pytest.approx(0.5, abs=0.08)

    def test_no_updates_at_zero(self):
        seq = generate_sequence(params(pr_update=0.0))
        assert all(isinstance(op, RetrieveQuery) for op in seq)

    def test_deterministic_by_seed(self):
        a = generate_sequence(params(pr_update=0.3))
        b = generate_sequence(params(pr_update=0.3))
        assert a == b

    def test_uses_db_child_counts(self, tiny_db_plain, tiny_params):
        point = tiny_params.replace(pr_update=0.9, num_queries=20)
        seq = generate_sequence(point, tiny_db_plain)
        counts = [rel.num_records for rel in tiny_db_plain.child_rels]
        for op in seq:
            if isinstance(op, UpdateQuery):
                for rel_index, key in op.refs:
                    assert key < counts[rel_index]

    def test_num_retrieves_override(self):
        seq = generate_sequence(params(), num_retrieves=7)
        assert sum(isinstance(op, RetrieveQuery) for op in seq) == 7


class TestMixedSequences:
    def test_num_tops_drawn_from_mix(self):
        seq = generate_mixed_sequence(params(), [1, 100], num_retrieves=60)
        spans = {op.num_top for op in seq if isinstance(op, RetrieveQuery)}
        assert spans == {1, 100}

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            generate_mixed_sequence(params(), [])
