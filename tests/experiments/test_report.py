"""The report runner."""

import json
import os

import pytest

from repro.__main__ import main
from repro.experiments import report


class TestSuite:
    def test_covers_every_figure_and_claim(self):
        names = [name for name, _ in report.experiment_suite(scale=0.1)]
        for expected in (
            "fig3",
            "fig4",
            "fig5",
            "fig7",
            "sec62",
            "smart",
            "deep",
            "matrix",
            "opt",
            "ablation_cache_size",
            "ablation_buffer",
            "ablation_inside_outside",
            "ablation_buffer_policy",
        ):
            assert expected in names

    def test_annotate_adds_headlines(self):
        from repro.experiments.runner import ExperimentResult

        result = ExperimentResult(
            name="fig3",
            title="t",
            headers=["NumTop", "DFS", "BFS", "BFSNODUP"],
            rows=[[1, 5.0, 7.0, 8.0], [100, 50.0, 20.0, 21.0]],
        )
        text = report.annotate("fig3", result)
        assert "BFS overtakes DFS" in text


class TestMain:
    def test_writes_requested_outputs(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        code = main(
            [
                "report",
                "--scale",
                "0.05",
                "--out",
                str(tmp_path / "out"),
                "--only",
                "ablation_buffer_policy",
                "--bench-out",
                str(bench),
            ]
        )
        assert code == 0
        written = sorted(os.listdir(tmp_path / "out"))
        assert written == [
            ".dbcache",
            ".pointcache",
            "ablation_buffer_policy.json",
            "ablation_buffer_policy.txt",
            "ledger.jsonl",
        ]
        out = capsys.readouterr().out
        assert "A4" in out
        assert "total:" in out
        # Every report run appends one ledger record with span rollups.
        from repro.obs.ledger import RunLedger

        (record,) = RunLedger(str(tmp_path / "out" / "ledger.jsonl")).read()
        assert record["kind"] == "report"
        assert record["scale"] == 0.05
        assert record["spans"]
        # --bench-out is that same record, pretty-printed: one row per
        # experiment, with point counts and its counters.
        payload = json.loads(bench.read_text())
        assert payload == record
        assert (payload["kind"], payload["schema"]) == ("report", 2)
        assert payload["jobs"] == 1
        assert payload["point_cache"]["stores"] > 0
        (entry,) = payload["experiments"]
        assert {"buffer", "io", "db", "faults"} <= set(entry)
        assert entry["name"] == "ablation_buffer_policy"
        assert entry["points"] == entry["executed"] + entry["cache_hits"]
        assert entry["points"] > 0
        # The snapshot store saw every shape: builds happened exactly once
        # per shape and the store holds their pickles.
        assert entry["db"]["builds"] > 0
        assert entry["db"]["attaches"] >= entry["db"]["builds"]
        assert payload["db"]["builds"] == entry["db"]["builds"]
        assert payload["db_bytes_on_disk"] > 0

    def test_point_cache_memoizes_across_runs(self, tmp_path):
        argv = [
            "report",
            "--scale",
            "0.05",
            "--out",
            str(tmp_path / "out"),
            "--only",
            "ablation_buffer_policy",
            "--bench-out",
        ]
        assert main(argv + [str(tmp_path / "cold.json")]) == 0
        assert main(argv + [str(tmp_path / "warm.json")]) == 0
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert cold["experiments"][0]["cache_hits"] == 0
        assert warm["experiments"][0]["executed"] == 0
        assert (
            warm["experiments"][0]["cache_hits"]
            == cold["experiments"][0]["executed"]
        )

    def test_bench_out_is_written_only_when_given(self, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code = main(
            ["report", "--scale", "0.05", "--out", str(tmp_path / "out"),
             "--only", "ablation_buffer"]
        )
        assert code == 0
        assert os.listdir(cwd) == []

    def test_unknown_only_name_errors(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "report",
                    "--out",
                    str(tmp_path),
                    "--bench-out",
                    "",
                    "--only",
                    "no_such_experiment",
                ]
            )
        assert excinfo.value.code == 2
