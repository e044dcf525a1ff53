"""The command-line interface."""

import pytest

from repro.__main__ import main


class TestList:
    def test_lists_strategies_and_matrix(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("DFS", "BFS", "DFSCACHE", "DFSCLUST", "SMART", "PROC-EXEC"):
            assert name in out
        assert "shaded" in out


class TestRun:
    def test_measures_one_point(self, capsys):
        code = main(
            [
                "run",
                "--strategy",
                "BFS",
                "--scale",
                "0.05",
                "--num-top",
                "5",
                "--num-queries",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg I/O per retrieve" in out
        assert "BFS" in out

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--strategy", "NOPE"])


class TestFootprint:
    def test_prints_relations(self, capsys):
        assert main(["footprint", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "ParentRel" in out
        assert "ClusterRel" in out
        assert "Cache" in out


class TestReport:
    def test_report_single_experiment(self, tmp_path, capsys):
        bench_out = tmp_path / "BENCH_sweeps.json"
        code = main(
            [
                "report",
                "--scale",
                "0.05",
                "--out",
                str(tmp_path),
                "--bench-out",
                str(bench_out),
                "--only",
                "ablation_buffer",
            ]
        )
        assert code == 0
        assert (tmp_path / "ablation_buffer.txt").exists()
        assert "A2" in capsys.readouterr().out
        assert bench_out.exists()


class TestExplainCommand:
    def test_explain_prints_plan(self, capsys):
        code = main(
            ["explain", "--strategy", "DFSCLUST", "--scale", "0.05",
             "--num-top", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ClusterRel" in out

    def test_explain_procedural(self, capsys):
        code = main(
            ["explain", "--strategy", "PROC-CACHE-VALUES", "--scale", "0.05",
             "--num-top", "5"]
        )
        assert code == 0
        assert "stored query" in capsys.readouterr().out


class TestTrace:
    def test_traces_one_strategy(self, capsys, tmp_path):
        out_path = tmp_path / "events.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "trace",
                "--strategy",
                "DFSCACHE",
                "--scale",
                "0.02",
                "--num-queries",
                "4",
                "--out",
                str(out_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "traced events" in out
        assert "ParCost (traced)" in out
        assert "self-check" in out
        assert "buffer hit rate" in out
        assert "cache-probe" in out  # DFSCACHE's stage breakdown

        import json

        from repro.obs import read_jsonl

        events = read_jsonl(str(out_path))
        assert events and all(e.strategy == "DFSCACHE" for e in events)
        with open(metrics_path) as handle:
            metrics = json.load(handle)
        assert sum(metrics["counters"].values()) >= len(events)

    def test_inside_cache_strategy_gets_its_facility(self, capsys):
        assert main(
            ["trace", "--strategy", "DFSCACHE-INSIDE", "--scale", "0.02",
             "--num-queries", "3"]
        ) == 0
        assert "self-check" in capsys.readouterr().out


class TestExplainMeasure:
    def test_prints_measured_counts_next_to_estimates(self, capsys):
        code = main(
            ["explain", "--strategy", "BFS", "--scale", "0.05", "--measure"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured (traced cold run)" in out
        assert "parent pages" in out
        assert "by stage" in out
        assert "merge-join" in out

    def test_plain_explain_unchanged_without_flag(self, capsys):
        assert main(["explain", "--strategy", "BFS", "--scale", "0.05"]) == 0
        assert "measured" not in capsys.readouterr().out
