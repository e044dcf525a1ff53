"""`repro perf`: trend tables, regression flags, flamegraph export."""

import cProfile
import os

from repro.__main__ import main
from repro.obs.ledger import LEDGER_FILENAME, RunLedger
from repro.obs.perfcli import (
    collapsed_from_pstats,
    comparable_pair,
    perf_flame,
    perf_trend,
    render_diff,
    render_spans,
    render_trend,
)


def report(scale=0.1, jobs=1, seconds=10.0, ts=1_000_000, executed=4,
           spans=None):
    record = {
        "kind": "report",
        "ts": ts,
        "git": "deadbeef0000",
        "scale": scale,
        "jobs": jobs,
        "total_seconds": seconds,
        "experiments": [
            {
                "name": "fig3",
                "seconds": seconds,
                "points": 6,
                "cache_hits": 2,
                "executed": executed,
            }
        ],
        "quarantined": [],
    }
    if spans:
        record["spans"] = spans
    return record


class TestTrend:
    def test_empty_ledger_renders_nothing(self):
        assert render_trend([]) is None

    def test_rows_carry_run_vitals(self):
        table = render_trend([report(seconds=12.5)])
        assert "12.5" in table and "deadbeef0000" in table

    def test_last_limits_rows(self):
        records = [report(ts=1_000_000 + i) for i in range(5)]
        table = render_trend(records, last=2)
        assert "2 of 5" in table


class TestComparablePair:
    def test_matches_same_scale_and_jobs(self):
        records = [
            report(scale=0.1, seconds=1.0, ts=1),
            report(scale=0.5, seconds=9.0, ts=2),
            report(scale=0.1, seconds=2.0, ts=3),
        ]
        earlier, latest = comparable_pair(records)
        assert earlier["total_seconds"] == 1.0
        assert latest["total_seconds"] == 2.0

    def test_no_match_returns_none(self):
        records = [report(scale=0.1, ts=1), report(scale=0.5, ts=2)]
        assert comparable_pair(records) is None
        assert comparable_pair([report()]) is None


class TestDiff:
    def test_flags_regression_past_threshold(self):
        table, flagged = render_diff(
            report(seconds=1.0), report(seconds=2.0), threshold=0.25
        )
        assert "REGRESSED" in table
        assert flagged and "fig3" in flagged[0]

    def test_small_drift_not_flagged(self):
        table, flagged = render_diff(
            report(seconds=1.0), report(seconds=1.1), threshold=0.25
        )
        assert flagged == []
        assert "REGRESSED" not in table

    def test_cache_served_runs_never_flag(self):
        # A fully cache-served run finishes in milliseconds; comparing
        # it against a cold run is noise, not a regression.
        table, flagged = render_diff(
            report(seconds=0.01, executed=0), report(seconds=2.0),
            threshold=0.25,
        )
        assert flagged == []

    def test_new_experiment_marked_new(self):
        earlier = report()
        earlier["experiments"] = []
        table, flagged = render_diff(earlier, report())
        assert "new" in table and flagged == []


class TestSpans:
    def test_spans_table_ranks_by_total(self):
        rollup = {"count": 2, "total_ms": 0.0, "p50_ms": 0.0,
                  "p95_ms": 0.0, "p99_ms": 0.0}
        record = report(spans={
            "cold": dict(rollup, total_ms=1.0),
            "hot": dict(rollup, total_ms=9.0),
        })
        table = render_spans(record)
        assert table.index("hot") < table.index("cold")
        assert render_spans(report()) is None


class TestPerfTrendCommand:
    def test_no_ledger_is_an_error(self, tmp_path, capsys):
        assert perf_trend(str(tmp_path)) == 1
        assert "no ledger" in capsys.readouterr().out

    def test_two_runs_render_trend_diff_and_spans(self, tmp_path, capsys):
        ledger = RunLedger(str(tmp_path / LEDGER_FILENAME))
        rollup = {"count": 4, "total_ms": 8.0, "p50_ms": 1.0,
                  "p95_ms": 2.0, "p99_ms": 2.5}
        ledger.append(report(seconds=1.0, ts=1))
        ledger.append(report(seconds=2.0, ts=2,
                             spans={"point.execute": rollup}))
        assert perf_trend(str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "Report runs" in out
        assert "Wall time vs previous" in out
        assert "point.execute" in out and "p95_ms" in out
        assert "REGRESSION: fig3" in out

    def test_micro_lines_of_an_older_checkout_are_ignored(self, tmp_path, capsys):
        ledger = RunLedger(str(tmp_path / LEDGER_FILENAME))
        old = {"kind": "micro", "benchmarks": {"heap_scan": {"ns_per_op": 9}}}
        ledger.append(dict(old))
        ledger.append(report(seconds=1.0, ts=1))
        ledger.append(dict(old))
        ledger.append({"kind": "serve", "ts": 2, "scale": 0.1, "clients": 2})
        assert main(["perf", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Report runs (1 of 1" in out and "Serve runs (1 of 1" in out
        assert "heap_scan" not in out and "Micro" not in out


class TestFlame:
    def test_flame_from_span_profiled_run(self, tmp_path, capsys):
        assert perf_flame(str(tmp_path), scale=0.02, strategy="BFS") == 0
        path = tmp_path / "flame-spans-BFS.txt"
        text = path.read_text()
        assert text  # at least one collapsed stack
        for line in text.splitlines():
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) > 0

    def test_flame_from_pstats_dump(self, tmp_path, capsys):
        dump = str(tmp_path / "run.pstats")
        cProfile.run("sum(i * i for i in range(200000))", dump)
        text = collapsed_from_pstats(dump)
        assert text
        assert perf_flame(
            str(tmp_path), pstats_path=dump,
            flame_out=str(tmp_path / "flame.txt"),
        ) == 0
        assert os.path.exists(tmp_path / "flame.txt")
