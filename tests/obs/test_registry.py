"""The metrics registry: counters, histograms, snapshots."""

import json

from repro.obs.registry import Histogram, MetricsRegistry


class TestCounters:
    def test_increment_and_read(self):
        reg = MetricsRegistry()
        reg.inc("io.pages", kind="parent")
        reg.inc("io.pages", 4, kind="parent")
        reg.inc("io.pages", kind="child")
        assert reg.counter("io.pages", kind="parent") == 5
        assert reg.counter("io.pages", kind="child") == 1
        assert reg.counter("io.pages", kind="cluster") == 0

    def test_tag_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("io.pages", op="read", kind="child")
        reg.inc("io.pages", kind="child", op="read")
        assert reg.counter("io.pages", op="read", kind="child") == 2

    def test_sum_counters_filters_by_tag_subset(self):
        reg = MetricsRegistry()
        reg.inc("io.pages", 3, op="read", kind="parent")
        reg.inc("io.pages", 5, op="read", kind="child")
        reg.inc("io.pages", 7, op="write", kind="child")
        reg.inc("other", 100, op="read")
        assert reg.sum_counters("io.pages") == 15
        assert reg.sum_counters("io.pages", op="read") == 8
        assert reg.sum_counters("io.pages", kind="child") == 12

    def test_counters_matching_ignores_tags(self):
        reg = MetricsRegistry()
        reg.inc("a", kind="x")
        reg.inc("a", kind="y")
        reg.inc("b")
        assert len(list(reg.counters_matching("a"))) == 2


class TestHistogram:
    def test_observe_tracks_count_sum_min_max(self):
        hist = Histogram()
        for value in (1, 5, 3):
            hist.observe(value)
        assert (hist.count, hist.total, hist.min, hist.max) == (3, 9, 1, 5)
        assert hist.mean == 3

    def test_power_of_two_buckets(self):
        hist = Histogram()
        for value in (1, 2, 3, 4, 5, 100):
            hist.observe(value)
        # <=1 -> 0, <=2 -> 1, <=4 -> 2, <=8 -> 3, <=128 -> 7
        assert hist.buckets == {0: 1, 1: 1, 2: 2, 3: 1, 7: 1}

    def test_merge_adds_contents(self):
        a, b = Histogram(), Histogram()
        a.observe(2)
        b.observe(10)
        b.observe(1)
        a.merge(b)
        assert (a.count, a.total, a.min, a.max) == (3, 13, 1, 10)

    def test_registry_observe(self):
        reg = MetricsRegistry()
        reg.observe("op.io", 4, kind="retrieve")
        reg.observe("op.io", 6, kind="retrieve")
        hist = reg.histogram("op.io", kind="retrieve")
        assert hist.count == 2
        assert hist.mean == 5


class TestSnapshot:
    def test_as_dict_is_deterministic_and_jsonable(self):
        reg = MetricsRegistry()
        reg.inc("io.pages", 2, op="read", kind="child")
        reg.observe("op.io", 3, kind="retrieve")
        snap = reg.as_dict()
        assert list(snap) == ["counters", "histograms"]
        assert snap["counters"] == {"io.pages{kind=child,op=read}": 2}
        assert snap["histograms"]["op.io{kind=retrieve}"]["count"] == 1
        json.dumps(snap)  # must be serialisable as-is

    def test_merge_folds_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.observe("h", 4)
        a.merge(b)
        assert a.counter("c") == 3
        assert a.histogram("h").count == 1

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("h", 1)
        assert len(reg) == 2
        reg.reset()
        assert len(reg) == 0
        assert reg.as_dict() == {"counters": {}, "histograms": {}}
