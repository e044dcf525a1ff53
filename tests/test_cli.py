"""The command-line interface."""

import re

import pytest

from repro.__main__ import main
from repro.core.strategies import REGISTRY
from repro.fault import plan as fault_plan


class TestList:
    def test_lists_strategies_and_matrix(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("DFS", "BFS", "DFSCACHE", "DFSCLUST", "SMART", "PROC-EXEC"):
            assert name in out
        assert "shaded" in out


class TestCommands:
    def test_eleven_commands_and_no_bench(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = capsys.readouterr().out
        commands = usage[usage.index("{") + 1:usage.index("}")].split(",")
        assert len(commands) == 11 and "perf" in commands


@pytest.mark.parametrize("name", sorted(REGISTRY))
class TestEveryRegisteredStrategy:
    """argparse offers every registered name, so every name must run."""

    def test_run(self, name, tmp_path, capsys):
        assert main(
            ["run", "--strategy", name, "--scale", "0.02", "--num-queries", "3",
             "--out", str(tmp_path)]
        ) == 0
        assert "avg I/O per retrieve" in capsys.readouterr().out

    def test_trace(self, name, capsys):
        assert main(
            ["trace", "--strategy", name, "--scale", "0.02", "--num-queries", "3"]
        ) == 0
        assert "self-check" in capsys.readouterr().out

    def test_explain_measure(self, name, capsys):
        assert main(
            ["explain", "--strategy", name, "--scale", "0.02", "--measure"]
        ) == 0
        assert "measured (traced cold run)" in capsys.readouterr().out


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

    @staticmethod
    def poisoned_run(tmp_path, *flags):
        """``repro run`` with its first point execution poisoned."""
        fault_plan.install(
            fault_plan.FaultPlan([fault_plan.FaultSpec("point.poison", count=1)])
        )
        try:
            return main(
                ["run", "--strategy", "BFS", "--scale", "0.02", "--num-top", "5",
                 "--out", str(tmp_path), *flags]
            )
        finally:
            fault_plan.clear()

    def test_quarantined_point_is_reported_not_a_traceback(self, tmp_path, capsys):
        assert self.poisoned_run(tmp_path, "--max-retries", "0") == 1
        captured = capsys.readouterr()
        assert "quarantined: FailedPoint(BFS@num_top=5, attempts=1" in captured.err
        assert "point.poison" in captured.err
        assert "avg I/O" not in captured.out

    def test_retry_flags_do_not_outlive_their_call(self, tmp_path, capsys):
        assert self.poisoned_run(tmp_path, "--max-retries", "0") == 1
        # No flag: the default budget retries the poisoned point.
        assert self.poisoned_run(tmp_path) == 0
        assert "avg I/O per retrieve" in capsys.readouterr().out


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
        # The stage table carries each stage's ms beside its pages.
        assert re.search(r"^\s*stage\s+pages\s+ms$", out, re.MULTILINE)
        assert re.search(r"^\s*cache-probe\s+\d+\s+\d+\.\d$", out, re.MULTILINE)
        assert "wall_ms" not in out

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
        assert re.search(r"merge-join=\d+/\d+\.\d", out)
        assert "wall clock" not in out

    def test_plain_explain_unchanged_without_flag(self, capsys):
        assert main(["explain", "--strategy", "BFS", "--scale", "0.05"]) == 0
        assert "measured" not in capsys.readouterr().out
