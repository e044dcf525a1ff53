"""The tracer: classification, stage annotation, capture, export."""

import pytest

from repro.core.strategies.base import make_strategy
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    Tracer,
    TraceEvent,
    active,
    classify_relation,
    normalize_relation,
    read_jsonl,
    stage,
)
from repro.workload.driver import run_sequence
from repro.workload.queries import generate_sequence


class TestClassification:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("ParentRel", "parent"),
            ("ChildRel", "child"),
            ("ChildRel-2", "child"),
            ("ClusterRel", "cluster"),
            ("ClusterRel-oid-isam", "cluster"),
            ("Cache", "cache"),
            ("InsideCache", "cache"),
            ("bfs-temp-17", "temp"),
            ("smart-temp-3", "temp"),
            ("sort-run-8", "temp"),
            ("sort-merge-2", "temp"),
            ("SomethingElse", "other"),
        ],
    )
    def test_classify_relation(self, name, kind):
        assert classify_relation(name) == kind

    def test_temp_names_lose_their_counter_suffix(self):
        assert normalize_relation("bfs-temp-17", "temp") == "bfs-temp"
        assert normalize_relation("sort-run-8", "temp") == "sort-run"
        # non-numeric tails and non-temp kinds pass through untouched
        assert normalize_relation("heap", "temp") == "heap"
        assert normalize_relation("ChildRel-2", "child") == "ChildRel-2"


class TestStageAnnotation:
    def test_noop_when_no_tracer_is_active(self):
        assert active() is None
        context = stage("scan")
        with context:
            pass  # must not raise and must not allocate a tracer
        assert stage("probe") is stage("sort")  # shared singleton

    def test_stages_nest_and_restore(self):
        tracer = Tracer(registry=MetricsRegistry())
        tracer.activate()
        try:
            with stage("probe"):
                assert tracer.stage == "probe"
                with stage("cache-probe"):
                    assert tracer.stage == "cache-probe"
                assert tracer.stage == "probe"
            assert tracer.stage is None
        finally:
            tracer.deactivate()

    def test_second_tracer_cannot_activate(self):
        first = Tracer(registry=MetricsRegistry())
        second = Tracer(registry=MetricsRegistry())
        first.activate()
        try:
            with pytest.raises(RuntimeError):
                second.activate()
        finally:
            first.deactivate()
        assert active() is None


class TestCapture:
    def test_attach_refuses_a_disk_that_has_a_hook(self, tiny_db_plain):
        db = tiny_db_plain
        other = Tracer(registry=MetricsRegistry())
        other.attach(db.disk)
        try:
            with pytest.raises(RuntimeError):
                Tracer(registry=MetricsRegistry()).attach(db.disk)
            assert db.disk.io_hook == other.on_io  # left untouched
        finally:
            other.detach()
        assert db.disk.io_hook is None

    def test_events_carry_full_attribution(self, tiny_db_plain):
        db = tiny_db_plain
        tracer = Tracer(registry=MetricsRegistry())
        tracer.strategy = "DFS"
        with tracer.observe(db.disk):
            tracer.begin_op("retrieve", 3)
            with stage("scan"):
                list(db.parents_in_range(0, 5))
            tracer.end_op()
        event = tracer.events[0]
        assert event.relation == "ParentRel"
        assert event.kind == "parent"
        assert event.stage == "scan"
        assert event.op_kind == "retrieve"
        assert event.op_index == 3
        assert event.strategy == "DFS"

    def test_summary_totals_match_disk_counters(self, tiny_db_plain):
        db = tiny_db_plain
        db.start_measurement(cold=True)
        tracer = Tracer(registry=MetricsRegistry())
        with tracer.observe(db.disk):
            list(db.parents_in_range(0, 9))
        counters = db.disk.snapshot()
        summary = tracer.summary()
        assert summary["reads"] == counters.reads
        assert summary["writes"] == counters.writes
        assert summary["events"] == counters.total

    def test_registry_receives_tagged_page_counters(self, tiny_db_plain):
        db = tiny_db_plain
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.observe(db.disk):
            with stage("scan"):
                list(db.parents_in_range(0, 9))
        assert registry.sum_counters("io.pages") == tracer.total
        assert registry.sum_counters("io.pages", stage="scan") == tracer.total

    def test_detach_stops_capture(self, tiny_db_plain):
        db = tiny_db_plain
        tracer = Tracer(registry=MetricsRegistry())
        with tracer.observe(db.disk):
            list(db.parents_in_range(0, 3))
        seen = tracer.total
        list(db.parents_in_range(0, 9))  # after detach: not traced
        assert tracer.total == seen


class TestExport:
    def test_jsonl_round_trip(self, tiny_params, tiny_db_plain, tmp_path):
        db = tiny_db_plain
        strategy = make_strategy("DFS")
        sequence = generate_sequence(tiny_params, db)
        tracer = Tracer(registry=MetricsRegistry(), keep_events=True)
        run_sequence(db, strategy, sequence, tracer=tracer)
        path = str(tmp_path / "events.jsonl")
        written = tracer.write_jsonl(path)
        events = read_jsonl(path)
        assert written == len(tracer.events) == tracer.summary()["events"] > 0
        assert all(isinstance(e, TraceEvent) for e in events)
        assert events == tracer.events
        assert [e.seq for e in events] == list(range(len(events)))

    def test_aggregate_only_tracer_refuses_export(self, tmp_path):
        tracer = Tracer(registry=MetricsRegistry(), keep_events=False)
        with pytest.raises(RuntimeError):
            tracer.write_jsonl(str(tmp_path / "nope.jsonl"))

    def test_aggregate_only_summary_matches_full_trace(
        self, tiny_params, tiny_db_plain
    ):
        """Retaining events changes no aggregate and not the digest."""
        db = tiny_db_plain
        strategy = make_strategy("DFS")
        sequence = generate_sequence(tiny_params, db)
        full = Tracer(registry=MetricsRegistry(), keep_events=True)
        run_sequence(db, strategy, sequence, tracer=full)
        lean = Tracer(registry=MetricsRegistry(), keep_events=False)
        run_sequence(db, strategy, sequence, tracer=lean)
        assert lean.events == []
        assert full.summary() == lean.summary()
