"""Hierarchical wall-clock span profiling.

The simulated-I/O tracer (:mod:`repro.obs.trace`) answers *where do the
page accesses go*; this module answers *where does the wall clock go*.
A :class:`SpanProfiler` aggregates nested, named spans measured with
:func:`time.perf_counter_ns`:

* a span is opened with the :func:`span` context manager and
  identified by its **path** — the ``;``-joined chain of enclosing span
  names (``point.execute;db.attach``) — so nesting is first-class and
  the aggregate is a call tree;
* per path the profiler keeps count, total/min/max nanoseconds and a
  deterministic, bounded sample reservoir
  (:class:`repro.util.stats.Reservoir`) from which p50/p95/p99 come;
* :meth:`SpanProfiler.collapsed` renders the tree in the collapsed-stack
  format that ``flamegraph.pl`` and speedscope consume (one
  ``path value`` line per stack, value = self-time in microseconds).

Profiling is **off by default** and guaranteed digest-neutral: spans
read the clock and touch profiler-private dicts only — they never see
the tracer, the disk, the buffer pool or any counter that feeds the
trace digests, so a spans-on run produces bit-identical event streams
to a spans-off run (``tests/obs/test_spans.py`` pins this).

The off path is allocation-free per call site: :func:`span` returns one
shared no-op context manager when no profiler is enabled — a module
global read, an ``is None`` test and two trivial method calls.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Dict, List, Optional

from repro.util.stats import Reservoir

#: Separator between nested span names in an aggregate path.
PATH_SEP = ";"

#: Name prefix of the spans :func:`repro.obs.trace.stage` opens.
STAGE_PREFIX = "stage:"


class SpanStat(Reservoir):
    """Aggregate of every completed span at one path."""

    __slots__ = ("count", "total_ns", "min_ns", "max_ns", "child_ns")

    def __init__(self) -> None:
        Reservoir.__init__(self)
        self.count = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns = 0
        #: Time spent in *named* child spans (for self-time computation).
        self.child_ns = 0

    def add(self, elapsed_ns: int) -> None:
        self.count += 1
        self.total_ns += elapsed_ns
        if self.min_ns is None or elapsed_ns < self.min_ns:
            self.min_ns = elapsed_ns
        if elapsed_ns > self.max_ns:
            self.max_ns = elapsed_ns
        self.offer(elapsed_ns)

    @property
    def self_ns(self) -> int:
        """Time not attributed to any named child span."""
        return max(0, self.total_ns - self.child_ns)

    def as_dict(self) -> Dict[str, Any]:
        """Deterministically ordered JSON-able rollup (milliseconds)."""
        to_ms = 1e-6
        return {
            "count": self.count,
            "total_ms": round(self.total_ns * to_ms, 3),
            "self_ms": round(self.self_ns * to_ms, 3),
            "min_ms": round((self.min_ns or 0) * to_ms, 3),
            "max_ms": round(self.max_ns * to_ms, 3),
            "p50_ms": round(self.quantile(50) * to_ms, 3),
            "p95_ms": round(self.quantile(95) * to_ms, 3),
            "p99_ms": round(self.quantile(99) * to_ms, 3),
        }


class _Span:
    """An open span: context manager pushed on the profiler's stack."""

    __slots__ = ("profiler", "name", "_path", "_start")

    def __init__(self, profiler: "SpanProfiler", name: str) -> None:
        self.profiler = profiler
        self.name = name

    def __enter__(self) -> "_Span":
        profiler = self.profiler
        stack = profiler._stack
        self._path = (
            stack[-1]._path + PATH_SEP + self.name if stack else self.name
        )
        stack.append(self)
        self._start = perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = perf_counter_ns() - self._start
        profiler = self.profiler
        stack = profiler._stack
        if stack and stack[-1] is self:
            stack.pop()
        path = self._path
        stats = profiler.stats
        stat = stats.get(path)
        if stat is None:
            stat = stats[path] = SpanStat()
        stat.add(elapsed)
        if stack:
            parent = stats.get(stack[-1]._path)
            if parent is None:
                parent = stats[stack[-1]._path] = SpanStat()
            parent.child_ns += elapsed


class _NullSpan:
    """Shared no-op context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


#: The one instance every disabled :func:`span` call returns — call
#: sites allocate nothing when profiling is off.
NULL_SPAN = _NullSpan()


class SpanProfiler:
    """Aggregates hierarchical wall-clock spans by path."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStat] = {}
        self._stack: List[_Span] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str) -> _Span:
        """An open-on-enter span nested under the current one."""
        return _Span(self, name)

    def add(self, name: str, elapsed_ns: int) -> None:
        """Record a pre-measured duration as a leaf span under the
        current stack (for call sites that time themselves)."""
        stack = self._stack
        path = stack[-1]._path + PATH_SEP + name if stack else name
        stat = self.stats.get(path)
        if stat is None:
            stat = self.stats[path] = SpanStat()
        stat.add(elapsed_ns)
        if stack:
            parent = self.stats.get(stack[-1]._path)
            if parent is None:
                parent = self.stats[stack[-1]._path] = SpanStat()
            parent.child_ns += elapsed_ns

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def rollups(self) -> Dict[str, Dict[str, Any]]:
        """Path-sorted ``{path: rollup}`` (the ledger's ``spans`` field)."""
        return {path: self.stats[path].as_dict() for path in sorted(self.stats)}

    def hottest(self, limit: int = 3) -> List[Any]:
        """The ``limit`` paths with the most total time, hottest first."""
        ranked = sorted(
            self.stats.items(), key=lambda item: -item[1].total_ns
        )
        return [(path, stat) for path, stat in ranked[:limit]]

    def collapsed(self) -> str:
        """Collapsed-stack text: ``path self_microseconds`` per line.

        Consumable by ``flamegraph.pl`` and speedscope.  Self-time keeps
        the flame's widths additive: a parent's line carries only the
        time not already attributed to its children.
        """
        lines = []
        for path in sorted(self.stats):
            self_us = self.stats[path].self_ns // 1000
            if self_us:
                lines.append("%s %d" % (path, self_us))
        return "\n".join(lines) + ("\n" if lines else "")

    def stage_ns(self) -> Dict[str, int]:
        """Nanoseconds per operator stage, the innermost stage winning.

        A ``stage:X`` span is charged its total time minus that of the
        ``stage:*`` spans nested inside it — the attribution the tracer
        applies to pages, so a stage's ms sit beside its page count.
        """
        totals: Dict[str, int] = {}
        for path, stat in self.stats.items():
            names = path.split(PATH_SEP)
            if not names[-1].startswith(STAGE_PREFIX):
                continue
            inner = names[-1][len(STAGE_PREFIX):]
            totals[inner] = totals.get(inner, 0) + stat.total_ns
            for name in reversed(names[:-1]):
                if name.startswith(STAGE_PREFIX):
                    outer = name[len(STAGE_PREFIX):]
                    totals[outer] = totals.get(outer, 0) - stat.total_ns
                    break
        return totals

    def reset(self) -> None:
        self.stats.clear()
        del self._stack[:]

    def merge(self, other: "SpanProfiler") -> None:
        """Fold another profiler's aggregates into this one."""
        for path, stat in other.stats.items():
            mine = self.stats.get(path)
            if mine is None:
                mine = self.stats[path] = SpanStat()
            mine.count += stat.count
            mine.total_ns += stat.total_ns
            mine.child_ns += stat.child_ns
            if stat.min_ns is not None and (
                mine.min_ns is None or stat.min_ns < mine.min_ns
            ):
                mine.min_ns = stat.min_ns
            if stat.max_ns > mine.max_ns:
                mine.max_ns = stat.max_ns
            mine.merge_samples(stat)


# ----------------------------------------------------------------------
# the module-level switch
# ----------------------------------------------------------------------
#: The enabled profiler, or None (the default: profiling off).  Hot call
#: sites read this directly; everything else goes through the functions
#: below.
_PROFILER: Optional[SpanProfiler] = None


def profiler() -> Optional[SpanProfiler]:
    """The enabled profiler, if any."""
    return _PROFILER


def enable(prof: Optional[SpanProfiler] = None) -> SpanProfiler:
    """Turn span profiling on (idempotent; returns the active profiler)."""
    global _PROFILER
    if prof is not None:
        _PROFILER = prof
    elif _PROFILER is None:
        _PROFILER = SpanProfiler()
    return _PROFILER


def disable() -> Optional[SpanProfiler]:
    """Turn profiling off; returns the profiler that was active."""
    global _PROFILER
    prof, _PROFILER = _PROFILER, None
    return prof


def span(name: str):
    """A wall-clock span named ``name`` under the current nesting.

    With profiling off (the default) this returns the shared
    :data:`NULL_SPAN` — no allocation, no clock read — so hot paths can
    annotate unconditionally.
    """
    prof = _PROFILER
    if prof is None:
        return NULL_SPAN
    return prof.span(name)


class _ProfiledContext:
    """Context manager for :func:`profiled`: enable, then restore."""

    __slots__ = ("profiler", "_previous")

    def __init__(self, prof: Optional[SpanProfiler] = None) -> None:
        self.profiler = prof if prof is not None else SpanProfiler()

    def __enter__(self) -> SpanProfiler:
        global _PROFILER
        self._previous = _PROFILER
        _PROFILER = self.profiler
        return self.profiler

    def __exit__(self, *exc: object) -> None:
        global _PROFILER
        _PROFILER = self._previous


def profiled(prof: Optional[SpanProfiler] = None) -> _ProfiledContext:
    """``with profiled() as prof:`` — profiling on for the block only."""
    return _ProfiledContext(prof)
