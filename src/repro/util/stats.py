"""Streaming summary statistics used by the experiment drivers and obs."""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Sequence


def count_delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """Key-wise ``after - before`` over ``after``'s keys (zeros kept)."""
    return {key: value - before.get(key, 0) for key, value in after.items()}


def add_counts(total: Dict[str, Any], delta: Dict[str, Any]) -> Dict[str, Any]:
    """Add ``delta`` into ``total`` key by key and return ``total``.

    Numbers sum, nested dicts add recursively and lists concatenate;
    zero-valued keys are kept, so readers may index every key they
    were given.
    """
    for key, value in delta.items():
        if isinstance(value, dict):
            add_counts(total.setdefault(key, {}), value)
        else:
            total[key] = total[key] + value if key in total else value
    return total


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100], got %r" % (q,))
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * (q / 100.0)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(data[lo])
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


#: Bound on a :class:`Reservoir`'s retained samples.
SAMPLE_CAP = 4096


class Reservoir:
    """Bounded, deterministically decimated sample reservoir.

    Every ``stride``-th observation is retained; once more than
    :data:`SAMPLE_CAP` are held, every other one is dropped and the
    stride doubles.  This is systematic sampling, so identical
    observation streams retain identical samples and give identical
    :meth:`quantile` estimates.  The metrics registry's histograms and
    the span profiler's per-path stats both keep their samples here.
    """

    __slots__ = ("samples", "_stride", "_skip")

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stride = 1
        self._skip = 0

    def offer(self, value: float) -> None:
        """Present one observation; it is kept if it falls on the stride."""
        if self._skip:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        samples = self.samples
        samples.append(value)
        if len(samples) > SAMPLE_CAP:
            del samples[::2]
            self._stride *= 2

    def merge_samples(self, other: "Reservoir") -> None:
        """Append ``other``'s samples, decimating back under the cap."""
        samples = self.samples
        samples.extend(other.samples)
        while len(samples) > SAMPLE_CAP:
            del samples[::2]
            self._stride *= 2

    def quantile(self, q: float) -> float:
        """Linear-interpolation percentile over the retained samples."""
        return percentile(self.samples, q)


class RunningStats:
    """Welford-style running mean/variance with min/max tracking.

    Used by the driver to accumulate per-query I/O costs without keeping
    every sample when sequences are long.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the summary."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples into the summary."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 with fewer than 2 samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        return self._mean * self.count

    def as_dict(self) -> dict:
        """Plain-dict snapshot for reports and JSON dumps."""
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "total": self.total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "RunningStats(count=%d, mean=%.2f, stddev=%.2f)" % (
            self.count,
            self.mean,
            self.stddev,
        )
