"""The persistent run ledger: append-only JSONL, corrupt-line tolerance."""

import json
import os

from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    git_revision,
    report_record,
    serve_record,
)


def entry(name="fig3", seconds=1.5, executed=4):
    return {
        "name": name,
        "seconds": seconds,
        "points": 6,
        "cache_hits": 2,
        "executed": executed,
        "buffer": {"hits": 10, "misses": 5},
    }


class TestRunLedger:
    def test_append_stamps_defaults_and_roundtrips(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append({"kind": "report", "scale": 0.1})
        (record,) = ledger.read()
        assert record["schema"] == LEDGER_SCHEMA
        assert record["kind"] == "report"
        assert "ts" in record and "git" in record

    def test_append_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "ledger.jsonl"
        RunLedger(str(path)).append({"kind": "serve"})
        assert path.exists()

    def test_records_keep_file_order(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        for index in range(3):
            ledger.append({"kind": "report", "index": index})
        assert [r["index"] for r in ledger.read()] == [0, 1, 2]

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(str(path))
        ledger.append({"kind": "report", "index": 0})
        with open(path, "a") as handle:
            handle.write("{torn write, no closing\n")
            handle.write("[1, 2, 3]\n")  # valid JSON, not an object
            handle.write("\n")
        ledger.append({"kind": "report", "index": 1})
        assert [r["index"] for r in ledger.read()] == [0, 1]

    def test_kind_filter_and_last(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append({"kind": "report", "index": 0})
        ledger.append({"kind": "serve", "index": 1})
        ledger.append({"kind": "report", "index": 2})
        assert [r["index"] for r in ledger.read("report")] == [0, 2]
        assert [r["index"] for r in ledger.last(1, "report")] == [2]

    def test_missing_file_reads_empty(self, tmp_path):
        assert RunLedger(str(tmp_path / "absent.jsonl")).read() == []


class TestGitRevision:
    def test_repo_revision_is_short_hex(self):
        rev = git_revision(os.path.dirname(os.path.abspath(__file__)))
        assert rev != "unknown"
        assert len(rev) == 12
        int(rev, 16)  # parses as hex

    def test_outside_a_repo_degrades_to_unknown(self, tmp_path):
        assert git_revision(str(tmp_path)) == "unknown"


class TestRecordBuilders:
    def test_report_record_keeps_experiment_rows(self):
        record = report_record(
            scale=0.1,
            jobs=2,
            total_seconds=3.14159,
            experiments=[entry("fig3"), entry("fig4", seconds=2.0)],
            faults={"retries": 1, "quarantined": ["fig3/p1"]},
            db={"entries": 4},
            point_cache={"hits": 2},
            fingerprint="abc123",
        )
        assert record["kind"] == "report"
        assert record["total_seconds"] == 3.142
        # experiment rows are kept verbatim; buffer counters are also
        # summed across them
        assert record["experiments"] == [entry("fig3"), entry("fig4", seconds=2.0)]
        assert record["buffer"] == {"hits": 20, "misses": 10}
        # quarantine is split out of the fault counters
        assert record["quarantined"] == ["fig3/p1"]
        assert "quarantined" not in record["faults"]
        assert "spans" not in record and "fault_config" not in record

    def test_report_record_optional_sections(self):
        record = report_record(
            scale=0.1,
            jobs=1,
            total_seconds=1.0,
            experiments=[entry()],
            faults={},
            db={},
            point_cache={},
            fingerprint="abc",
            spans={"point.execute": {"count": 4}},
            fault_config={"seed": 7},
        )
        assert record["spans"]["point.execute"]["count"] == 4
        assert record["fault_config"] == {"seed": 7}

    def test_both_record_kinds_carry_peak_rss(self):
        report = report_record(
            scale=0.1, jobs=1, total_seconds=1.0, experiments=[], faults={},
            db={}, point_cache={}, fingerprint="abc",
        )
        serve = serve_record(
            config={}, requests={}, latency_ms={}, publish={}, admission={},
            verified=None, fingerprint="abc",
        )
        for record in (report, serve):
            assert isinstance(record["peak_rss_mb"], float)

    def test_records_are_json_serialisable_one_line(self):
        record = serve_record(
            config={"scale": 0.1, "clients": 2},
            requests={"ok": 9},
            latency_ms={"retrieve": {"p95": 1.5}},
            publish={"publishes": 3},
            admission={"shed": 0},
            verified=True,
            fingerprint="abc",
        )
        line = json.dumps(record, sort_keys=True)
        assert "\n" not in line
        assert record["kind"] == "serve" and record["clients"] == 2
        assert record["schema"] == LEDGER_SCHEMA
