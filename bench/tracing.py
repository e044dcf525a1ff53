"""Bench-owned span tracing: recorder, layer-boundary wrappers, budgets.

The traced pass wraps the program's public layer-boundary callables for
its own duration and records one span per call — name, start, end, the
span that caused it, and a trace id shared by every span of one
operation / sweep point / request.  Spans live in memory (flat int
arrays) and are written to ``bench/out/trace-<workload>.jsonl`` only
when the workload has finished.

A span's **self time** is its busy time minus the busy time of its
direct children.  For a plain call busy time is the whole interval.  A
generator is busy only while resumed: the wrapper brackets every resume
(so spans opened by the generator's body nest under it, and the
consumer's own work between yields stays with the consumer) but keeps a
single record for the generator's life, with the resumed time summed.

``BufferPool.fetch`` runs millions of times per round and is not
wrapped; :func:`layer_budget` estimates its share from the pool's
hit/miss counters and the probed per-fetch costs, and takes it out of
the access-method layers that call the pool, so the shares still sum
to one.
"""

from __future__ import annotations

import array
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: One span as the offline functions see it.
Span = Tuple[int, int, int, str, int, int, int]
# (span id, parent id or 0, trace id, name, start ns, end ns, busy ns)

#: Spans that start a new trace id even when nested (a sweep point
#: inside ``run_sweep``); every other span inherits its parent's.
TRACE_BOUNDARIES = frozenset({"experiments.pool.execute_point"})

#: Budget rows, each the span-name prefixes it owns.  Whatever no row
#: owns — set-up, the driver loop, table rendering, spans of unlisted
#: layers — lands in ``unattributed``.
BUDGET_LAYERS: Dict[str, Tuple[str, ...]] = {
    "core.strategies": ("core.strategies.",),
    "core.cache": ("core.cache.",),
    "query": ("query.",),
    "storage.btree": ("storage.btree.",),
    "storage.heap": ("storage.heap.",),
    "storage.hashfile": ("storage.hashfile.",),
    "storage.disk": ("storage.disk.",),
    "storage.snapshot": ("storage.snapshot.",),
    "experiments.pool": ("experiments.pool.",),
}

#: Layers whose self time contains the unwrapped ``BufferPool.fetch``
#: (``query`` through the merge join's B-tree cursor).
POOL_CALLERS = ("storage.btree", "storage.heap", "storage.hashfile", "query")


class Recorder:
    """In-memory span log; one record per call or generator lifetime."""

    def __init__(self) -> None:
        self._rows = array.array("q")  # 7 ints per span, name as a code
        self._names: List[str] = []
        self._codes: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self._names)
            self._names.append(name)
        return code

    def stack(self) -> List[Tuple[int, int]]:
        """This thread's open spans as ``(span id, trace id)``."""
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def __len__(self) -> int:
        return len(self._rows) // 7

    def spans(self) -> Iterator[Span]:
        rows = self._rows
        names = self._names
        for i in range(0, len(rows), 7):
            yield (
                rows[i], rows[i + 1], rows[i + 2], names[rows[i + 3]],
                rows[i + 4], rows[i + 5], rows[i + 6],
            )

    def write_jsonl(self, path: str) -> None:
        """One JSON array per span, after a first line naming the fields."""
        with open(path, "w") as handle:
            handle.write(json.dumps(
                ["id", "parent", "trace", "name", "start_ns", "end_ns", "busy_ns"]
            ) + "\n")
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def wrap_call(recorder: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` recording one span per call."""
    code = recorder.code(name)
    rows = recorder._rows
    ids = recorder._ids
    local = recorder._local
    boundary = name in TRACE_BOUNDARIES
    clock = perf_counter_ns

    def traced_call(*args: Any, **kwargs: Any) -> Any:
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        span_id = next(ids)
        if stack:
            parent, trace = stack[-1]
            if boundary:
                trace = span_id
        else:
            parent, trace = 0, span_id
        stack.append((span_id, trace))
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            rows.extend((span_id, parent, trace, code, start, end, end - start))

    traced_call.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced_call


def wrap_generator(
    recorder: Recorder, name: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    """Generator function ``fn`` recording one span per generator, busy
    only while resumed."""
    code = recorder.code(name)
    rows = recorder._rows
    ids = recorder._ids
    clock = perf_counter_ns

    def traced_generator(*args: Any, **kwargs: Any) -> Any:
        inner = fn(*args, **kwargs)
        stack = recorder.stack()
        span_id = next(ids)
        parent, trace = stack[-1] if stack else (0, span_id)
        entry = (span_id, trace)
        first = last = clock()
        busy = 0
        try:
            while True:
                # The consumer may resume the generator on another
                # thread's stack only in theory; look it up each time.
                stack = recorder.stack()
                stack.append(entry)
                resumed = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    last = clock()
                    busy += last - resumed
                    stack.pop()
                yield item
        finally:
            inner.close()
            rows.extend((span_id, parent, trace, code, first, last, busy))

    traced_generator.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced_generator


def _targets() -> List[Tuple[str, Any, str]]:
    """``(span name, owner, attribute)`` for every wrapped callable.

    Owners are classes (methods) or modules (functions); a function's
    other importers are found at install time.
    """
    from repro.core import cache as core_cache
    from repro.core.strategies import base as strategies_base
    from repro.experiments import pool
    from repro.query import join, sort, temp
    from repro.serve import server
    from repro.storage import arena, btree, disk, hashfile, heap, isam, snapshot
    from repro.workload import generator, queries

    targets: List[Tuple[str, Any, str]] = [
        ("workload.generator.build_database", generator, "build_database"),
        ("workload.queries.generate_sequence", queries, "generate_sequence"),
        ("storage.snapshot.freeze", snapshot.Snapshot, "freeze"),
        ("storage.snapshot.attach", snapshot.Snapshot, "attach"),
        ("storage.snapshot.attach", arena.ArenaSnapshot, "attach"),
        ("storage.snapshot.store_get", snapshot.SnapshotStore, "get"),
        ("storage.snapshot.store_put", snapshot.SnapshotStore, "put"),
        ("core.cache.lookup", core_cache.UnitCache, "lookup"),
        ("core.cache.insert", core_cache.UnitCache, "insert"),
        ("core.cache.invalidate_for_subobject", core_cache.UnitCache,
         "invalidate_for_subobject"),
        ("query.sort.external_sort", sort, "external_sort"),
        ("query.join.merge_probe_join", join, "merge_probe_join"),
        ("query.temp.insert_many", temp.TempRelation, "insert_many"),
        ("storage.btree.lookup", btree.BTreeFile, "lookup"),
        ("storage.btree.range_scan", btree.BTreeFile, "range_scan"),
        ("storage.btree.update_field", btree.BTreeFile, "update_field"),
        ("storage.heap.scan_pages", heap.HeapFile, "scan_pages"),
        ("storage.heap.insert_many", heap.HeapFile, "insert_many"),
        ("storage.hashfile.lookup", hashfile.HashFile, "lookup"),
        ("storage.hashfile.insert", hashfile.HashFile, "insert"),
        ("storage.isam.lookup", isam.IsamIndex, "lookup"),
        ("storage.isam.get", isam.IsamIndex, "get"),
        ("storage.disk.read_page", disk.DiskManager, "read_page"),
        ("storage.disk.write_page", disk.DiskManager, "write_page"),
        ("experiments.pool.run_sweep", pool, "run_sweep"),
        ("experiments.pool.execute_point", pool, "execute_point"),
        ("experiments.pool.pointcache_get", pool.PointCache, "get"),
        ("experiments.pool.pointcache_put", pool.PointCache, "put"),
        ("serve.server.submit", server.SnapshotServer, "submit"),
    ]
    # Strategy.retrieve is abstract: wrap it wherever a class defines it.
    seen = set()
    for cls in strategies_base.REGISTRY.values():
        for klass in cls.__mro__:
            for attr in ("retrieve", "update"):
                if (klass, attr) in seen or attr not in vars(klass):
                    continue
                seen.add((klass, attr))
                if getattr(vars(klass)[attr], "__isabstractmethod__", False):
                    continue
                targets.append(("core.strategies.%s" % attr, klass, attr))
    return targets


def _program_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Instrumentation:
    """Installs the wrappers for a ``with`` block and restores on exit.

    Restoration puts back the very objects that were there: the saved
    raw class-dict entries (so classmethods stay classmethods) and the
    saved module globals of every importer of a wrapped function.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if inspect.isgeneratorfunction(fn):
            return wrap_generator(self.recorder, name, fn)
        return wrap_call(self.recorder, name, fn)

    def __enter__(self) -> "Instrumentation":
        import repro.experiments  # noqa: F401  every run_sweep importer loaded

        for name, owner, attr in _targets():
            raw = vars(owner)[attr]
            if inspect.ismodule(owner):
                wrapped = self._wrap(name, raw)
                for module in _program_modules():
                    if vars(module).get(attr) is raw:
                        self._saved.append((module, attr, raw))
                        setattr(module, attr, wrapped)
            elif isinstance(raw, classmethod):
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(name, raw))
        return self

    def __exit__(self, *exc: Any) -> None:
        # Wrappers stay referenced until the scan below is done, so an
        # id() cannot be recycled for an unrelated object meanwhile.
        function_wrappers: Dict[int, Tuple[Any, Any]] = {}
        while self._saved:
            owner, attr, raw = self._saved.pop()
            if inspect.ismodule(owner):
                wrapper = vars(owner)[attr]
                function_wrappers[id(wrapper)] = (wrapper, raw)
            setattr(owner, attr, raw)
        # A module first imported inside the block bound the wrapper,
        # not the function; give it the function back too.
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                found = function_wrappers.get(id(value))
                if found is not None:
                    setattr(module, attr, found[1])


def patched_attributes() -> Dict[Tuple[str, str], Any]:
    """Identity snapshot of everything :class:`Instrumentation` touches."""
    snapshot: Dict[Tuple[str, str], Any] = {}
    for _name, owner, attr in _targets():
        raw = vars(owner)[attr]
        snapshot[(getattr(owner, "__name__", repr(owner)), attr)] = raw
        if inspect.ismodule(owner):
            for module in _program_modules():
                if attr in vars(module):
                    snapshot[(module.__name__, attr)] = vars(module)[attr]
    return snapshot


# ----------------------------------------------------------------------
# offline arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Self nanoseconds per span id: busy time minus the children's."""
    own: Dict[int, int] = {}
    children: Dict[int, int] = {}
    for span_id, parent, _trace, _name, _start, _end, busy in spans:
        own[span_id] = busy
        if parent:
            children[parent] = children.get(parent, 0) + busy
    return {span_id: busy - children.get(span_id, 0) for span_id, busy in own.items()}


def self_time_by_name(spans: Iterable[Span]) -> Dict[str, Dict[str, int]]:
    """``{name: {"count", "self_ns", "busy_ns"}}`` over ``spans``."""
    spans = list(spans)
    own = self_times(spans)
    table: Dict[str, Dict[str, int]] = {}
    for span_id, _parent, _trace, name, _start, _end, busy in spans:
        row = table.setdefault(name, {"count": 0, "self_ns": 0, "busy_ns": 0})
        row["count"] += 1
        row["self_ns"] += own[span_id]
        row["busy_ns"] += busy
    return table


def layer_of(name: str) -> Optional[str]:
    for layer, prefixes in BUDGET_LAYERS.items():
        if name.startswith(prefixes):
            return layer
    return None


def put_budget(metrics: Any, by_name: Dict[str, Dict[str, int]],
               denominator_ns: float, pool_fetch_ns: float = 0.0) -> None:
    """Report :func:`layer_budget` as ``budget.<layer>_share`` metrics; the
    per-span table rides along in the record, under the residual row."""
    for layer, share in layer_budget(by_name, denominator_ns, pool_fetch_ns).items():
        metrics.put("budget.%s_share" % layer, share, "ratio")
    metrics.values["budget.unattributed_share"]["spans"] = dict(sorted(by_name.items()))


def layer_budget(
    by_name: Dict[str, Dict[str, int]],
    denominator_ns: float,
    pool_fetch_ns: float = 0.0,
) -> Dict[str, float]:
    """Shares of ``denominator_ns`` per budget row, summing to exactly 1.

    ``pool_fetch_ns`` is the estimated time inside the unwrapped
    ``BufferPool.fetch``; it is moved from the access-method rows (in
    proportion to their size, and never more than they hold) into
    ``storage.buffer``.
    """
    layers = {layer: 0.0 for layer in BUDGET_LAYERS}
    for name, row in by_name.items():
        layer = layer_of(name)
        if layer is not None:
            layers[layer] += row["self_ns"]
    callers = sum(layers[layer] for layer in POOL_CALLERS)
    moved = min(pool_fetch_ns, callers)
    if callers:
        for layer in POOL_CALLERS:
            layers[layer] -= moved * layers[layer] / callers
    layers["storage.buffer"] = moved
    shares = {layer: value / denominator_ns for layer, value in layers.items()}
    shares["unattributed"] = 1.0 - sum(shares.values())
    return shares
