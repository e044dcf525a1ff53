"""The measurement driver."""

import dataclasses

import pytest

from repro.advisor import WorkloadSketch, recommend
from repro.core.queries import RetrieveQuery, UpdateQuery
from repro.core.strategies import REGISTRY, make_strategy
from repro.experiments.runner import run_point
from repro.workload.driver import measure_strategy, run_sequence
from repro.workload.generator import build_database
from repro.workload.queries import generate_sequence


class TestRunSequence:
    def test_counts_and_costs(self, tiny_db_plain, tiny_params):
        point = tiny_params.replace(pr_update=0.3, num_queries=20)
        sequence = generate_sequence(point, tiny_db_plain)
        report = run_sequence(tiny_db_plain, make_strategy("BFS"), sequence)
        assert report.num_retrieves == 20
        assert report.num_updates > 0
        assert report.total_io == report.retrieve_io + report.update_io
        assert report.avg_io_per_retrieve > 0
        assert report.avg_retrieve_io <= report.avg_io_per_retrieve

    def test_reset_makes_runs_repeatable(self, tiny_db_plain, tiny_params):
        sequence = generate_sequence(tiny_params, tiny_db_plain)
        a = run_sequence(tiny_db_plain, make_strategy("BFS"), sequence)
        b = run_sequence(tiny_db_plain, make_strategy("BFS"), sequence)
        assert a.total_io == b.total_io

    def test_cache_stats_attached_for_caching_strategy(self, tiny_db, tiny_params):
        sequence = generate_sequence(tiny_params, tiny_db)
        report = run_sequence(tiny_db, make_strategy("DFSCACHE"), sequence)
        assert report.cache_stats is not None
        assert report.cache_stats["insertions"] > 0

    def test_no_cache_stats_for_plain_strategy(self, tiny_db, tiny_params):
        sequence = generate_sequence(tiny_params, tiny_db)
        report = run_sequence(tiny_db, make_strategy("BFS"), sequence)
        assert report.cache_stats is None

    def test_per_retrieve_stats(self, tiny_db_plain, tiny_params):
        sequence = generate_sequence(tiny_params, tiny_db_plain)
        report = run_sequence(tiny_db_plain, make_strategy("DFS"), sequence)
        assert report.per_retrieve["count"] == report.num_retrieves
        assert report.per_retrieve["mean"] == pytest.approx(
            report.avg_retrieve_io
        )

    def test_warmup_excluded_from_measurement(self, tiny_db_plain, tiny_params):
        sequence = generate_sequence(tiny_params, tiny_db_plain, num_retrieves=10)
        full = run_sequence(tiny_db_plain, make_strategy("BFS"), sequence)
        warmed = run_sequence(
            tiny_db_plain, make_strategy("BFS"), sequence, warmup=5
        )
        assert warmed.num_retrieves == 5
        assert warmed.total_io < full.total_io

    def test_cold_retrieves_cost_more(self, tiny_db_plain, tiny_params):
        point = tiny_params.replace(num_top=5)
        sequence = generate_sequence(point, tiny_db_plain, num_retrieves=20)
        warm = run_sequence(tiny_db_plain, make_strategy("DFS"), sequence)
        cold = run_sequence(
            tiny_db_plain, make_strategy("DFS"), sequence, cold_retrieves=True
        )
        assert cold.retrieve_io >= warm.retrieve_io

    def test_unknown_operation_rejected(self, tiny_db_plain):
        with pytest.raises(TypeError):
            run_sequence(tiny_db_plain, make_strategy("BFS"), ["nonsense"])

    def test_warmup_excluded_from_cache_stats(self, tiny_db, tiny_params):
        """Zero-then-read covers the unit cache as it does disk and pool."""
        sequence = generate_sequence(tiny_params, tiny_db)
        report = run_sequence(
            tiny_db, make_strategy("DFSCACHE"), sequence, warmup=len(sequence)
        )
        assert report.num_retrieves == 0
        assert report.cache_stats["hits"] + report.cache_stats["misses"] == 0
        assert report.buffer_stats["hits"] + report.buffer_stats["misses"] == 0

    def test_buffer_hit_rate_reads_buffer_stats(self, tiny_db_plain, tiny_params):
        sequence = generate_sequence(tiny_params, tiny_db_plain, num_retrieves=3)
        report = run_sequence(tiny_db_plain, make_strategy("DFS"), sequence)
        stats = report.buffer_stats
        assert report.buffer_hit_rate == stats["hits"] / (
            stats["hits"] + stats["misses"]
        )
        assert "buffer_hit_rate" not in dataclasses.asdict(report)


class TestMeasureStrategy:
    def test_builds_what_the_strategy_needs(self, tiny_params):
        report = measure_strategy(tiny_params, "DFSCLUST")
        assert report.strategy == "DFSCLUST"
        assert report.avg_io_per_retrieve > 0

    def test_accepts_prebuilt_database(self, tiny_db, tiny_params):
        report = measure_strategy(tiny_params, "SMART", db=tiny_db)
        assert report.num_retrieves == tiny_params.num_queries

    def test_strategy_kwargs_forwarded(self, tiny_db, tiny_params):
        report = measure_strategy(tiny_params, "SMART", db=tiny_db, threshold=1)
        assert report.strategy == "SMART"


@pytest.mark.parametrize("name", sorted(REGISTRY))
class TestEveryRegisteredStrategy:
    """One shape rule: each entry point builds the database the name needs."""

    def test_measures_like_a_sweep_point(self, tiny_params, name):
        report = measure_strategy(tiny_params, name)
        point = run_point(tiny_params, name, num_retrieves=tiny_params.num_queries)
        assert report.avg_io_per_retrieve == point.avg_io_per_retrieve > 0

    def test_advisor_races_it(self, tiny_params, name):
        rec = recommend(
            WorkloadSketch(), candidates=[name], num_retrieves=4,
            base_params=tiny_params,
        )
        point = run_point(rec.params, name, num_retrieves=4, warmup_fraction=0.25)
        assert rec.costs[name] == point.avg_io_per_retrieve > 0
