"""The metrics registry: counters and histograms.

The paper's evaluation methodology is "instrument the system and read
its counters" (Section 4 uses INGRES's I/O counters); this module is the
reproduction's generalisation of that idea.  A :class:`MetricsRegistry`
holds two families of instruments, each identified by a name plus a
set of string tags:

* **counters** — monotonically increasing totals (page reads by
  relation kind, cache probes, ...);
* **histograms** — distributions summarised as count/sum/min/max plus
  power-of-two buckets and percentiles (per-query I/O, latencies).

Instruments are created lazily on first touch, so recording is one dict
lookup plus an integer add — cheap enough to leave in the measurement
path.  Nothing in the registry does I/O or allocates per update, and a
registry is plain data: :meth:`as_dict` emits a deterministic, JSON-able
snapshot keyed ``name{tag=value,...}`` for telemetry files and tests.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.util.stats import Reservoir

TagKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, tags: Dict[str, Any]) -> TagKey:
    """Canonical instrument key: name + sorted (tag, value) pairs."""
    if not tags:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in tags.items())))


def _label(key: TagKey) -> str:
    name, tags = key
    if not tags:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % pair for pair in tags))


class Histogram(Reservoir):
    """count/sum/min/max, percentiles, plus power-of-two buckets.

    Bucket ``i`` counts observations with ``2**(i-1) < value <= 2**i``
    (bucket 0 counts values <= 1).  Power-of-two edges keep the
    structure value-free and mergeable.  The inherited
    :class:`~repro.util.stats.Reservoir` makes the histogram
    percentile-capable: :meth:`quantile` and the p50/p95/p99 fields of
    :meth:`as_dict` interpolate over its retained samples — the latency
    summaries the serving layer reports through.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        Reservoir.__init__(self)
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = 0
        edge = 1
        while value > edge:
            edge <<= 1
            bucket += 1
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.offer(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for bucket, count in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count
        self.merge_samples(other)

    def as_dict(self) -> Dict[str, Any]:
        # Key order is part of the snapshot contract: new percentile
        # fields slot between mean and buckets, everything else as before.
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(50),
            "p95": self.quantile(95),
            "p99": self.quantile(99),
            "buckets": {str(b): self.buckets[b] for b in sorted(self.buckets)},
        }


class MetricsRegistry:
    """Tagged counters and histograms with a JSON-able snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[TagKey, int] = {}
        self._histograms: Dict[TagKey, Histogram] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1, **tags: Any) -> None:
        """Add ``value`` to the counter ``name`` with ``tags``."""
        key = _key(name, tags)
        self._counters[key] = self._counters.get(key, 0) + value

    def observe(self, name: str, value: float, **tags: Any) -> None:
        """Record one observation into the histogram ``name`` / ``tags``."""
        key = _key(name, tags)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def counter(self, name: str, **tags: Any) -> int:
        return self._counters.get(_key(name, tags), 0)

    def histogram(self, name: str, **tags: Any) -> Optional[Histogram]:
        return self._histograms.get(_key(name, tags))

    def counters_matching(self, name: str) -> Iterator[Tuple[TagKey, int]]:
        """All counters named ``name``, regardless of tags."""
        for key, value in self._counters.items():
            if key[0] == name:
                yield key, value

    def sum_counters(self, name: str, **tags: Any) -> int:
        """Total of every ``name`` counter whose tags include ``tags``."""
        wanted = {(k, str(v)) for k, v in tags.items()}
        total = 0
        for (_, key_tags), value in self.counters_matching(name):
            if wanted <= set(key_tags):
                total += value
        return total

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every instrument (between sweep points)."""
        self._counters.clear()
        self._histograms.clear()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one (all add)."""
        for key, value in other._counters.items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, hist in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histograms[key] = Histogram()
            mine.merge(hist)

    def as_dict(self) -> Dict[str, Any]:
        """Deterministic snapshot: ``{family: {label: value}}``."""
        return {
            "counters": {
                _label(key): self._counters[key] for key in sorted(self._counters)
            },
            "histograms": {
                _label(key): self._histograms[key].as_dict()
                for key in sorted(self._histograms)
            },
        }
