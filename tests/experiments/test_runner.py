"""Experiment machinery: adaptive query counts, database cache, results."""

import pytest

from repro.experiments.runner import (
    DatabaseCache,
    ExperimentResult,
    adaptive_queries,
    run_point,
    scaled_num_tops,
)
from repro.workload.params import WorkloadParams


class TestAdaptiveQueries:
    def test_explicit_request_wins(self):
        assert adaptive_queries(10000, requested=3) == 3

    def test_small_num_top_gets_many_queries(self):
        assert adaptive_queries(1) == 200

    def test_large_num_top_gets_few(self):
        assert adaptive_queries(10000) == 5

    def test_monotone_nonincreasing(self):
        counts = [adaptive_queries(n) for n in (1, 10, 100, 1000, 10000)]
        assert counts == sorted(counts, reverse=True)


class TestScaledNumTops:
    def test_fractions_and_dedup(self):
        params = WorkloadParams(num_parents=1000)
        tops = scaled_num_tops(params, [0.0001, 0.001, 0.002, 1.0])
        assert tops == [1, 2, 1000]  # 0.0001 and 0.001 both round to 1

    def test_clamped_to_parents(self):
        params = WorkloadParams(num_parents=100, num_top=1)
        assert scaled_num_tops(params, [5.0]) == [100]


class TestDatabaseCache:
    def test_reuses_same_shape(self, tiny_params):
        cache = DatabaseCache()
        a = cache.get(tiny_params)
        b = cache.get(tiny_params.replace(num_top=3))  # num_top is not shape
        assert a is not b  # two clones of one build
        assert (cache.builds, cache.attaches, len(cache)) == (1, 2, 1)

    def test_distinguishes_shape_changes(self, tiny_params):
        cache = DatabaseCache()
        a = cache.get(tiny_params)
        b = cache.get(tiny_params.replace(use_factor=2))
        assert a is not b

    def test_distinguishes_facilities(self, tiny_params):
        cache = DatabaseCache()
        plain = cache.get(tiny_params)
        clustered = cache.get(tiny_params, clustering=True)
        assert plain is not clustered
        assert clustered.cluster is not None

    def test_clear(self, tiny_params):
        cache = DatabaseCache()
        a = cache.get(tiny_params)
        cache.clear()
        assert cache.get(tiny_params) is not a
        assert cache.builds == 2

    def test_bounded_cache_evicts_least_recently_used(self, tiny_params):
        cache = DatabaseCache(max_entries=2)
        cache.get(tiny_params)
        cache.get(tiny_params.replace(use_factor=2))
        cache.get(tiny_params)  # refreshes its recency without a build
        assert cache.builds == 2
        cache.get(tiny_params.replace(use_factor=3))  # evicts use_factor=2
        assert len(cache) == 2
        cache.get(tiny_params)
        assert cache.builds == 3
        cache.get(tiny_params.replace(use_factor=2))  # evicted: built again
        assert (cache.builds, cache.attaches) == (4, 6)

    def test_get_deep_reuses_database(self):
        from repro.workload.deepgen import DeepParams

        cache = DatabaseCache()
        base = DeepParams(num_roots=40, depth=2, use_factor=3)
        assert cache.get_deep(base) is not cache.get_deep(base)
        assert (cache.builds, cache.attaches) == (1, 2)

    def test_every_get_reads_the_pristine_build(self, tiny_params):
        """What one point writes into its clone never reaches the next."""
        cache = DatabaseCache()
        first = cache.get(tiny_params)
        oid, ret1 = next(first.child_rels[0].scan())[:2]
        first.apply_update([(0, oid)], ret1 + 1)  # rewrites a ChildRel page
        assert first.child_rels[0].lookup_one(oid)[1] == ret1 + 1
        second = cache.get(tiny_params)
        assert second.child_rels[0].lookup_one(oid)[1] == ret1


class TestRunPoint:
    def test_runs_any_registered_strategy(self, tiny_params):
        cache = DatabaseCache()
        for name in ("DFS", "BFS", "DFSCACHE", "DFSCLUST"):
            report = run_point(tiny_params, name, cache, num_retrieves=3)
            assert report.num_retrieves == 3

    def test_inside_cache_strategy_supported(self, tiny_params):
        report = run_point(tiny_params, "DFSCACHE-INSIDE", num_retrieves=3)
        assert report.strategy == "DFSCACHE-INSIDE"


class TestExperimentResult:
    def make(self):
        return ExperimentResult(
            name="x",
            title="T",
            headers=["a", "b"],
            rows=[[1, 2], [3, 4]],
            notes=["n"],
        )

    def test_table_renders(self):
        text = self.make().table()
        assert "T" in text
        assert "note: n" in text

    def test_column(self):
        assert self.make().column("b") == [2, 4]


class TestJsonExport:
    def make(self):
        return ExperimentResult(
            name="x",
            title="T",
            headers=["a", "b"],
            rows=[[1, 2.5], [3, "z"]],
            notes=["n"],
        )

    def test_to_json_roundtrip(self):
        import json

        payload = json.loads(self.make().to_json())
        assert payload == {
            "name": "x",
            "title": "T",
            "headers": ["a", "b"],
            "rows": [[1, 2.5], [3, "z"]],
            "notes": ["n"],
        }

    def test_write_json(self, tmp_path):
        import json

        path = tmp_path / "out.json"
        self.make().write_json(str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["name"] == "x"
