"""Statistics helpers."""

import math

import pytest

from repro.obs.registry import Histogram
from repro.obs.spans import SpanStat
from repro.util.stats import (
    SAMPLE_CAP,
    Reservoir,
    RunningStats,
    percentile,
)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 25) == 2.5

    def test_extremes(self):
        data = [5, 1, 9]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_single_value(self):
        assert percentile([7], 50) == 7


class TestRunningStats:
    def test_matches_batch_computation(self):
        data = [3.0, 1.5, 4.0, 1.0, 5.9, 2.6]
        stats = RunningStats()
        stats.extend(data)
        assert stats.count == len(data)
        assert stats.mean == pytest.approx(sum(data) / len(data))
        batch_var = sum((x - stats.mean) ** 2 for x in data) / (len(data) - 1)
        assert stats.variance == pytest.approx(batch_var)
        assert stats.stddev == pytest.approx(math.sqrt(batch_var))
        assert stats.minimum == 1.0
        assert stats.maximum == 5.9
        assert stats.total == pytest.approx(sum(data))

    def test_empty(self):
        stats = RunningStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.as_dict()["min"] == 0.0

    def test_single_sample(self):
        stats = RunningStats()
        stats.add(4)
        assert stats.variance == 0.0
        assert stats.mean == 4

    def test_as_dict_keys(self):
        stats = RunningStats()
        stats.add(1)
        assert set(stats.as_dict()) == {
            "count",
            "mean",
            "stddev",
            "min",
            "max",
            "total",
        }


#: Both reservoir owners, each with its one recording method.
OWNERS = [
    pytest.param(Histogram, "observe", id="Histogram"),
    pytest.param(SpanStat, "add", id="SpanStat"),
]


def _filled(owner, record, values):
    stat = owner()
    for value in values:
        getattr(stat, record)(value)
    return stat


class TestReservoir:
    def test_quantile_interpolates_over_samples(self):
        reservoir = Reservoir()
        for value in (0, 10):
            reservoir.offer(value)
        assert reservoir.quantile(25) == 2.5

    @pytest.mark.parametrize("owner,record", OWNERS)
    def test_decimation_is_deterministic(self, owner, record):
        a = _filled(owner, record, range(3 * SAMPLE_CAP))
        b = _filled(owner, record, range(3 * SAMPLE_CAP))
        assert isinstance(a, Reservoir)
        assert len(a.samples) <= SAMPLE_CAP
        assert a.samples == b.samples
        assert a.count == 3 * SAMPLE_CAP  # counters never sampled away

    @pytest.mark.parametrize("owner,record", OWNERS)
    def test_decimation_keeps_a_systematic_sample(self, owner, record):
        stat = _filled(owner, record, range(SAMPLE_CAP + 1))
        # One past the cap: every other sample dropped...
        assert stat.samples == list(range(1, SAMPLE_CAP + 1, 2))
        # ...and the stride doubled: of the next two values one is kept.
        getattr(stat, record)(SAMPLE_CAP + 1)
        getattr(stat, record)(SAMPLE_CAP + 2)
        assert stat.samples[-2:] == [SAMPLE_CAP - 1, SAMPLE_CAP + 1]

    @pytest.mark.parametrize("owner,record", OWNERS)
    def test_merge_decimates_back_under_the_cap(self, owner, record):
        a = _filled(owner, record, range(SAMPLE_CAP))
        b = _filled(owner, record, range(SAMPLE_CAP, 2 * SAMPLE_CAP))
        a.merge_samples(b)
        assert len(a.samples) <= SAMPLE_CAP
        assert a.samples == list(range(1, 2 * SAMPLE_CAP, 2))
