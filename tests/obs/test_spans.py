"""Wall-clock span profiling: off-path cost, nesting, digest neutrality."""

from repro.fault.chaos import chaos_points, result_digest
from repro.obs import spans
from repro.obs.spans import (
    NULL_SPAN,
    SpanProfiler,
    SpanStat,
    profiled,
    span,
)


class TestOffPath:
    def test_off_by_default(self):
        assert spans.profiler() is None

    def test_disabled_span_is_the_shared_null_span(self):
        # The off path allocates nothing: every call site gets the one
        # module-level no-op context manager back, whatever the name.
        assert span("driver.retrieve") is NULL_SPAN
        assert span("anything.else") is NULL_SPAN

    def test_null_span_is_a_noop_context_manager(self):
        with NULL_SPAN as opened:
            assert opened is None

    def test_enable_disable_roundtrip(self):
        prof = spans.enable()
        try:
            assert spans.profiler() is prof
            assert spans.enable() is prof  # idempotent
        finally:
            assert spans.disable() is prof
        assert spans.profiler() is None


class TestNesting:
    def test_paths_join_the_enclosing_chain(self):
        with profiled() as prof:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        assert sorted(prof.stats) == ["outer", "outer;inner"]
        assert prof.stats["outer"].count == 1
        assert prof.stats["outer;inner"].count == 2

    def test_child_time_attributed_to_parent(self):
        with profiled() as prof:
            with span("outer"):
                with span("inner"):
                    pass
        outer = prof.stats["outer"]
        inner = prof.stats["outer;inner"]
        assert outer.child_ns == inner.total_ns
        assert outer.self_ns == outer.total_ns - inner.total_ns

    def test_add_records_a_leaf_under_the_current_stack(self):
        with profiled() as prof:
            with span("op"):
                prof.add("codec.encode", 1000)
                prof.add("codec.encode", 3000)
        stat = prof.stats["op;codec.encode"]
        assert (stat.count, stat.total_ns) == (2, 4000)
        assert prof.stats["op"].child_ns >= 4000

    def test_profiled_restores_the_previous_profiler(self):
        outer = spans.enable(SpanProfiler())
        try:
            with profiled() as inner:
                assert spans.profiler() is inner
            assert spans.profiler() is outer
        finally:
            spans.disable()


class TestSpanStat:
    def test_aggregates_count_total_min_max(self):
        stat = SpanStat()
        for ns in (300, 100, 200):
            stat.add(ns)
        assert (stat.count, stat.total_ns) == (3, 600)
        assert (stat.min_ns, stat.max_ns) == (100, 300)

    def test_percentiles_from_samples(self):
        stat = SpanStat()
        for ns in range(1, 101):
            stat.add(ns)
        assert stat.quantile(50) <= stat.quantile(95)
        assert stat.quantile(99) <= 100

    def test_as_dict_key_order_is_fixed(self):
        stat = SpanStat()
        stat.add(1_000_000)
        assert list(stat.as_dict()) == [
            "count", "total_ms", "self_ms", "min_ms", "max_ms",
            "p50_ms", "p95_ms", "p99_ms",
        ]


class TestProfilerViews:
    def test_rollups_are_path_sorted(self):
        with profiled() as prof:
            with span("b"):
                pass
            with span("a"):
                with span("z"):
                    pass
        assert list(prof.rollups()) == ["a", "a;z", "b"]

    def test_hottest_ranks_by_total(self):
        prof = SpanProfiler()
        prof.add("cold", 10)
        prof.add("hot", 1000)
        assert [path for path, _ in prof.hottest(2)] == ["hot", "cold"]

    def test_collapsed_emits_self_time_in_microseconds(self):
        prof = SpanProfiler()
        prof.add("a", 5_000_000)
        with prof.span("a"):
            pass  # parent wrapper around nothing
        text = prof.collapsed()
        assert text.endswith("\n")
        line = [l for l in text.splitlines() if l.startswith("a ")][0]
        assert int(line.split()[1]) >= 5000

    def test_merge_folds_counts_and_extremes(self):
        a, b = SpanProfiler(), SpanProfiler()
        a.add("x", 100)
        b.add("x", 10)
        b.add("y", 1)
        a.merge(b)
        assert a.stats["x"].count == 2
        assert a.stats["x"].min_ns == 10
        assert a.stats["x"].max_ns == 100
        assert a.stats["y"].count == 1

    def test_stage_time_goes_to_the_innermost_stage(self):
        prof = SpanProfiler()
        prof.add("driver.retrieve;stage:probe", 1000)
        prof.add("driver.retrieve;stage:probe;stage:cache-probe", 300)
        prof.add("driver.retrieve;stage:probe;pool.fetch_miss", 50)
        prof.add("driver.update;stage:probe", 200)
        prof.add("driver.retrieve", 5000)
        assert prof.stage_ns() == {"probe": 900, "cache-probe": 300}

    def test_reset_clears_everything(self):
        prof = SpanProfiler()
        prof.add("x", 1)
        prof.reset()
        assert prof.stats == {}


class TestDigestNeutrality:
    """The tentpole guarantee: profiling on cannot change a result."""

    def test_traced_sweep_digest_identical_spans_on_vs_off(self):
        from repro.experiments.pool import run_sweep

        points = chaos_points(0.1)
        baseline = run_sweep(points)
        with profiled() as prof:
            traced = run_sweep(points)
        # The profiler actually saw the run...
        assert prof.stats, "span-profiled sweep recorded no spans"
        assert any(p.startswith("point.execute") for p in prof.stats)
        # ...and the measured results — including every traced event
        # digest — are bit-identical to the spans-off run.
        assert result_digest(traced) == result_digest(baseline)
