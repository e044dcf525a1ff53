"""The representation matrix (Figure 1) and Figure 2's strategy mapping."""

import pytest

from repro.core.representations import (
    CachedRep,
    PrimaryRep,
    is_valid_cell,
    is_valid_point,
    matrix_summary,
    strategies_for,
)
from repro.errors import RepresentationError


class TestMatrixCells:
    def test_procedural_column_fully_valid(self):
        for cached in CachedRep:
            assert is_valid_cell(PrimaryRep.PROCEDURAL, cached)

    def test_oid_caching_oids_is_shaded(self):
        assert not is_valid_cell(PrimaryRep.OID, CachedRep.OIDS)
        assert is_valid_cell(PrimaryRep.OID, CachedRep.NONE)
        assert is_valid_cell(PrimaryRep.OID, CachedRep.VALUES)

    def test_value_based_caching_is_shaded(self):
        assert is_valid_cell(PrimaryRep.VALUE, CachedRep.NONE)
        assert not is_valid_cell(PrimaryRep.VALUE, CachedRep.OIDS)
        assert not is_valid_cell(PrimaryRep.VALUE, CachedRep.VALUES)

    def test_summary_counts(self):
        cells = matrix_summary()
        assert len(cells) == 9
        assert sum(1 for _, _, valid in cells if valid) == 6


class TestClusteringAxis:
    def test_clustering_only_for_oid_primary(self):
        assert is_valid_point(PrimaryRep.OID, CachedRep.NONE, clustered=True)
        assert not is_valid_point(PrimaryRep.PROCEDURAL, CachedRep.NONE, clustered=True)
        assert not is_valid_point(PrimaryRep.VALUE, CachedRep.NONE, clustered=True)

    def test_caching_plus_clustering_rejected(self):
        # Section 3.4: "it does not make sense to combine the two".
        assert not is_valid_point(PrimaryRep.OID, CachedRep.VALUES, clustered=True)


class TestStrategyMapping:
    def test_figure_2_mapping(self):
        assert strategies_for(CachedRep.NONE, clustered=False) == [
            "DFS",
            "BFS",
            "BFSNODUP",
        ]
        assert strategies_for(CachedRep.VALUES, clustered=False) == [
            "DFSCACHE",
            "SMART",
        ]
        assert strategies_for(CachedRep.NONE, clustered=True) == ["DFSCLUST"]

    def test_invalid_point_raises(self):
        with pytest.raises(RepresentationError):
            strategies_for(CachedRep.VALUES, clustered=True)

    def test_every_mapped_strategy_is_registered(self):
        from repro.core.strategies import REGISTRY

        for cached, clustered in [
            (CachedRep.NONE, False),
            (CachedRep.VALUES, False),
            (CachedRep.NONE, True),
        ]:
            for name in strategies_for(cached, clustered):
                assert name in REGISTRY
