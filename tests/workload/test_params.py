"""Workload parameters: defaults, derived quantities, validation, scaling."""

import pytest

from repro.errors import WorkloadError
from repro.workload.params import WorkloadParams


class TestDefaults:
    def test_paper_defaults(self):
        params = WorkloadParams()
        assert params.num_parents == 10000
        assert params.size_unit == 5
        assert params.share_factor == 5
        assert params.size_cache == 1000
        assert params.buffer_pages == 100
        assert params.num_queries == 1000
        params.validate()

    def test_equation_one(self):
        # |ChildRel| = 50000 / ShareFactor at paper scale.
        assert WorkloadParams(use_factor=1).num_children == 50000
        assert WorkloadParams(use_factor=5).num_children == 10000
        assert WorkloadParams(use_factor=50).num_children == 1000

    def test_num_units(self):
        assert WorkloadParams(use_factor=5).num_units == 2000
        assert WorkloadParams(use_factor=1).num_units == 10000

    def test_share_factor_composition(self):
        params = WorkloadParams(use_factor=5, overlap_factor=3)
        assert params.share_factor == 15


class TestValidation:
    @pytest.mark.parametrize(
        "changes",
        [
            {"num_parents": 0},
            {"size_unit": 0},
            {"use_factor": 0},
            {"overlap_factor": -1},
            {"num_child_rels": 0},
            {"pr_update": 1.0},
            {"pr_update": -0.1},
            {"num_top": 0},
            {"num_top": 10001},
            {"num_queries": 0},
            {"update_size": 0},
            {"size_cache": 0},
            {"buffer_pages": 2},
            {"parent_bytes": 10},
        ],
    )
    def test_bad_values_rejected(self, changes):
        import dataclasses

        params = dataclasses.replace(WorkloadParams(), **changes)
        with pytest.raises(WorkloadError):
            params.validate()

    def test_replace_validates(self):
        with pytest.raises(WorkloadError):
            WorkloadParams().replace(num_top=0)

    def test_replace_copies(self):
        base = WorkloadParams()
        other = base.replace(num_top=7)
        assert base.num_top != 7
        assert other.num_top == 7

    def test_fractional_share_factors_allowed(self):
        # The factors are expectations; awkward divisors must still work.
        WorkloadParams(use_factor=3).validate()
        WorkloadParams(use_factor=7, overlap_factor=3).validate()


class TestScaling:
    def test_scaled_preserves_ratios(self):
        base = WorkloadParams()
        small = base.scaled(0.1)
        assert small.num_parents == pytest.approx(1000, rel=0.1)
        assert small.size_cache == pytest.approx(100, rel=0.1)
        assert small.buffer_pages == pytest.approx(10, rel=0.2)
        # Non-cardinality knobs are untouched.
        assert small.use_factor == base.use_factor
        assert small.page_size == base.page_size
        small.validate()

    def test_scale_one_is_identity_shape(self):
        base = WorkloadParams()
        assert base.scaled(1.0).num_parents == base.num_parents

    def test_bad_scale(self):
        with pytest.raises(WorkloadError):
            WorkloadParams().scaled(0)
        with pytest.raises(WorkloadError):
            WorkloadParams().scaled(2.0)

    def test_num_top_clamped(self):
        params = WorkloadParams(num_top=10000).scaled(0.01)
        assert params.num_top <= params.num_parents
