"""Structured I/O tracing.

Every physical page access the :class:`~repro.storage.disk.DiskManager`
performs can be captured as a :class:`TraceEvent` tagged with

* the **relation** it hit and that relation's **page kind**
  (``parent`` / ``child`` / ``cluster`` / ``cache`` / ``temp``);
* the driver-level **phase** (``parent`` / ``child`` / ``update``) the
  active :class:`~repro.core.measure.CostMeter` is in;
* the strategy-level **stage** (``scan``, ``probe``, ``sort``,
  ``merge-join``, ``cache-probe``, ``cache-maintain``) annotated by the
  executing operator;
* which **operation** of a measured sequence (retrieve #k / update #k)
  was running.

A :class:`Tracer` installs itself as the disk's ``io_hook`` — the hook
slot is a single ``is not None`` check on the hot path, so tracing costs
*nothing* when off — aggregates events into a
:class:`~repro.obs.registry.MetricsRegistry`, keeps a running SHA-256
digest of the canonical event stream (the determinism fingerprint), and
can retain the raw events for export as JSON lines.

:func:`validate_report` is the self-check the whole subsystem exists
for: the traced totals must *exactly* equal the costs a
:class:`~repro.workload.driver.CostReport` reports, because both are
views of the same physical page accesses.  Any mismatch means an
attribution bug, and traced runs raise :class:`TraceValidationError`.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ReproError
from repro.obs import spans as _spans
from repro.obs.registry import MetricsRegistry

#: The page kinds a relation name maps onto.
PAGE_KINDS = ("parent", "child", "cluster", "cache", "temp", "other")

#: Stage vocabulary used by the strategies' annotations.  Stages are
#: informative labels, not an enum — operators may add to this set.
STAGES = ("scan", "probe", "sort", "merge-join", "cache-probe", "cache-maintain")

_TEMP_PREFIXES = ("temp", "bfs-temp", "smart-temp", "sort-run", "sort-merge", "heap")


def classify_relation(name: str) -> str:
    """Map a relation/file name onto one of :data:`PAGE_KINDS`."""
    if name == "ParentRel":
        return "parent"
    if name.startswith("ChildRel"):
        return "child"
    if name.startswith("ClusterRel"):  # includes the ClusterRel OID ISAM index
        return "cluster"
    if name in ("Cache", "InsideCache") or name.endswith("Cache"):
        return "cache"
    for prefix in _TEMP_PREFIXES:
        if name.startswith(prefix):
            return "temp"
    return "other"


def normalize_relation(name: str, kind: str) -> str:
    """The relation label traced for ``name``.

    Temporaries are named with a process-global counter suffix
    (``bfs-temp-17``), which depends on how many temps any earlier run in
    the same process created.  Tracing the bare prefix keeps event
    streams — and their digests — identical between a serial run and a
    worker-pool run of the same point.
    """
    if kind != "temp":
        return name
    stem, _, suffix = name.rpartition("-")
    if stem and suffix.isdigit():
        return stem
    return name


@dataclass(frozen=True)
class TraceEvent:
    """One physical page access, fully attributed."""

    seq: int
    op: str  # "read" | "write"
    file_id: int
    page_no: int
    relation: str
    kind: str  # one of PAGE_KINDS
    phase: Optional[str]  # parent | child | update (CostMeter phase)
    stage: Optional[str]  # scan | probe | sort | ... (operator annotation)
    op_kind: Optional[str]  # retrieve | update (measured sequence op)
    op_index: Optional[int]  # position of that op in the sequence
    strategy: Optional[str]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "op": self.op,
            "file_id": self.file_id,
            "page_no": self.page_no,
            "relation": self.relation,
            "kind": self.kind,
            "phase": self.phase,
            "stage": self.stage,
            "op_kind": self.op_kind,
            "op_index": self.op_index,
            "strategy": self.strategy,
        }


class TraceValidationError(ReproError, AssertionError):
    """Traced totals disagree with the driver's reported costs.

    Part of the :class:`~repro.errors.ReproError` hierarchy (it keeps
    ``AssertionError`` as a base for backward compatibility): a traced
    sweep point that fails validation is retried and, if persistent,
    quarantined like any other point failure.
    """


# ----------------------------------------------------------------------
# the active tracer and stage annotations
# ----------------------------------------------------------------------
_ACTIVE: Optional["Tracer"] = None


def active() -> Optional["Tracer"]:
    """The currently activated tracer, if any."""
    return _ACTIVE


class _NullContext:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class _StageContext:
    __slots__ = ("tracer", "name", "prev", "span")

    def __init__(self, tracer: Optional["Tracer"], name: str,
                 span: Optional[Any] = None) -> None:
        self.tracer = tracer
        self.name = name
        self.span = span

    def __enter__(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            self.prev = tracer.stage
            tracer.stage = self.name
        if self.span is not None:
            self.span.__enter__()

    def __exit__(self, *exc: object) -> None:
        if self.span is not None:
            self.span.__exit__(*exc)
        if self.tracer is not None:
            self.tracer.stage = self.prev


def stage(name: str):
    """Attribute page accesses in the ``with`` block to stage ``name``.

    Stages nest (e.g. ``cache-probe`` inside ``probe``); the innermost
    one wins.  When a :mod:`repro.obs.spans` profiler is enabled the
    block is additionally measured as a wall-clock span ``stage:NAME``,
    so the operator stages carry both simulated-I/O and real-time
    attribution from the same annotation points.  With neither a tracer
    nor a profiler active this returns a shared no-op context manager —
    two global reads and no allocation, so operators can annotate
    unconditionally.
    """
    tracer = _ACTIVE
    prof = _spans._PROFILER
    if tracer is None and prof is None:
        return _NULL_CONTEXT
    span = prof.span(_spans.STAGE_PREFIX + name) if prof is not None else None
    return _StageContext(tracer, name, span)


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
class Tracer:
    """Captures, aggregates and digests physical page accesses.

    **Batched emission.**  ``on_io`` records only the event's canonical
    line plus a per ``(op, relation, kind)`` count, and defers the
    digest update, the aggregate dictionaries and the metrics-registry
    increment until the attribution context changes (phase/stage write,
    operation bracket, or any read of the results).  A batch never spans
    two contexts, so the deferred attribution is exact, and the digest
    is fed the same bytes whichever way the stream is cut
    (``update(a); update(b)`` == one update of the concatenation).

    ``keep_events=True`` additionally retains every event as a
    :class:`TraceEvent` for :meth:`write_jsonl`; it changes no aggregate
    and no digest.  Sweep points use ``keep_events=False`` so traced
    summaries stay small enough to memoize.  A tracer built without a
    ``registry`` records into one of its own.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        keep_events: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []
        # the pending batch (see class docstring)
        self._pending: List[str] = []
        self._pending_groups: Dict[Any, int] = {}
        # attribution context
        self._phase: Optional[str] = None
        self._stage: Optional[str] = None
        self.op_kind: Optional[str] = None
        self.op_index: Optional[int] = None
        self.strategy: Optional[str] = None
        # incremental aggregates
        self.reads = 0
        self.writes = 0
        self.by_kind: Dict[str, int] = {}
        self.by_phase: Dict[str, int] = {}
        self.by_stage: Dict[str, int] = {}
        self.by_relation: Dict[str, int] = {}
        self.measured: Dict[str, int] = {"retrieve": 0, "update": 0}
        self._digest = hashlib.sha256()
        self._seq = 0
        self._op_start_seq = 0
        # attachment
        self._disk: Optional[Any] = None
        self._kinds: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # attribution context (writes flush the pending batch first, so a
    # batch never spans two contexts and deferred attribution is exact)
    # ------------------------------------------------------------------
    @property
    def phase(self) -> Optional[str]:
        return self._phase

    @phase.setter
    def phase(self, value: Optional[str]) -> None:
        if self._pending:
            self._flush()
        self._phase = value

    @property
    def stage(self) -> Optional[str]:
        return self._stage

    @stage.setter
    def stage(self, value: Optional[str]) -> None:
        if self._pending:
            self._flush()
        self._stage = value

    # ------------------------------------------------------------------
    # attachment lifecycle
    # ------------------------------------------------------------------
    def attach(self, disk: Any) -> None:
        """Install as ``disk``'s io_hook, which must be free."""
        if self._disk is not None:
            raise RuntimeError("tracer is already attached to a disk")
        if disk.io_hook is not None:
            raise RuntimeError("disk already has an io_hook")
        self._disk = disk
        disk.io_hook = self.on_io

    def detach(self) -> None:
        """Clear the disk's io_hook."""
        if self._disk is None:
            return
        if self._pending:
            self._flush()
        self._disk.io_hook = None
        self._disk = None

    def activate(self) -> None:
        """Make this the process-wide tracer stage annotations target."""
        global _ACTIVE
        if _ACTIVE is not None and _ACTIVE is not self:
            raise RuntimeError("another tracer is already active")
        _ACTIVE = self

    def deactivate(self) -> None:
        global _ACTIVE
        if self._pending:
            self._flush()
        if _ACTIVE is self:
            _ACTIVE = None

    @contextmanager
    def observe(self, disk: Any) -> Iterator["Tracer"]:
        """Attach + activate for the duration of a ``with`` block."""
        self.attach(disk)
        self.activate()
        try:
            yield self
        finally:
            self.deactivate()
            self.detach()

    # ------------------------------------------------------------------
    # event capture
    # ------------------------------------------------------------------
    def on_io(self, op: str, page_id: Any) -> None:
        """The DiskManager hook: called for every page read/write."""
        file_id = page_id.file_id
        info = self._kinds.get(file_id)
        if info is None:
            name = self._disk.file_name(file_id) if self._disk is not None else "?"
            kind = classify_relation(name)
            info = (normalize_relation(name, kind), kind)
            self._kinds[file_id] = info
        relation, kind = info
        # The one canonical-line format: what the stream digest hashes.
        self._pending.append(
            "%s|%s|%d|%s|%s|%s|%s|%s"
            % (
                op,
                relation,
                page_id.page_no,
                kind,
                self._phase or "-",
                self._stage or "-",
                self.op_kind or "-",
                "-" if self.op_index is None else self.op_index,
            )
        )
        groups = self._pending_groups
        group = (op, relation, kind)
        groups[group] = groups.get(group, 0) + 1
        if self.keep_events:
            self.events.append(
                TraceEvent(
                    seq=self._seq,
                    op=op,
                    file_id=file_id,
                    page_no=page_id.page_no,
                    relation=relation,
                    kind=kind,
                    phase=self._phase,
                    stage=self._stage,
                    op_kind=self.op_kind,
                    op_index=self.op_index,
                    strategy=self.strategy,
                )
            )
        self._seq += 1

    def _flush(self) -> None:
        """Drain the batched events into digest, aggregates and registry.

        Each canonical line is terminated by ``\\n``, so the hash state
        after a flush is independent of where the batches were cut.
        """
        pending = self._pending
        if not pending:
            return
        self._digest.update(("\n".join(pending) + "\n").encode())
        phase, stage_name, op_kind = self._phase, self._stage, self.op_kind
        by_kind, by_relation = self.by_kind, self.by_relation
        registry_inc = self.registry.inc
        total = 0
        for (op, relation, kind), count in self._pending_groups.items():
            if op == "read":
                self.reads += count
            else:
                self.writes += count
            by_kind[kind] = by_kind.get(kind, 0) + count
            by_relation[relation] = by_relation.get(relation, 0) + count
            registry_inc(
                "io.pages",
                count,
                op=op,
                kind=kind,
                phase=phase or "-",
                stage=stage_name or "-",
            )
            total += count
        if phase is not None:
            self.by_phase[phase] = self.by_phase.get(phase, 0) + total
        if stage_name is not None:
            self.by_stage[stage_name] = self.by_stage.get(stage_name, 0) + total
        if op_kind is not None:
            self.measured[op_kind] += total
        self._pending = []
        self._pending_groups = {}

    # ------------------------------------------------------------------
    # operation bracketing (driven by run_sequence)
    # ------------------------------------------------------------------
    def begin_op(self, kind: str, index: int) -> None:
        if self._pending:
            self._flush()
        self.op_kind = kind
        self.op_index = index
        self._op_start_seq = self._seq

    def end_op(self) -> None:
        if self._pending:
            self._flush()
        if self.op_kind is not None:
            self.registry.observe(
                "op.io", self._seq - self._op_start_seq, kind=self.op_kind
            )
        self.op_kind = None
        self.op_index = None

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        if self._pending:
            self._flush()
        return self.reads + self.writes

    def digest(self) -> str:
        """SHA-256 over the canonical event stream so far."""
        if self._pending:
            self._flush()
        return self._digest.hexdigest()

    def summary(self) -> Dict[str, Any]:
        """JSON-able aggregate view (what sweep reports carry around)."""
        if self._pending:
            self._flush()
        return {
            "events": self._seq,
            "reads": self.reads,
            "writes": self.writes,
            "by_kind": {k: self.by_kind[k] for k in sorted(self.by_kind)},
            "by_phase": {k: self.by_phase[k] for k in sorted(self.by_phase)},
            "by_stage": {k: self.by_stage[k] for k in sorted(self.by_stage)},
            "by_relation": {
                k: self.by_relation[k] for k in sorted(self.by_relation)
            },
            "measured": {
                "retrieve_io": self.measured["retrieve"],
                "update_io": self.measured["update"],
                "par_cost": self.by_phase.get("parent", 0),
                "child_cost": self.by_phase.get("child", 0),
                "update_cost": self.by_phase.get("update", 0),
            },
            "digest": self.digest(),
        }

    def write_jsonl(self, path: str) -> int:
        """Export the kept events as JSON lines; returns the line count.

        Requires ``keep_events=True`` (aggregate-only tracers have
        nothing to export).
        """
        if not self.keep_events:
            raise RuntimeError("tracer was created with keep_events=False")
        with open(path, "w") as handle:
            for event in self.events:
                handle.write(json.dumps(event.as_dict(), sort_keys=True))
                handle.write("\n")
        return len(self.events)


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load events previously exported by :meth:`Tracer.write_jsonl`."""
    events: List[TraceEvent] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent(**json.loads(line)))
    return events


# ----------------------------------------------------------------------
# self-validation
# ----------------------------------------------------------------------
def validate_report(report: Any, summary: Dict[str, Any]) -> List[str]:
    """Cross-check a CostReport against a traced summary.

    Returns a list of human-readable mismatches (empty = the traced
    event stream exactly accounts for every reported page access).
    """
    measured = summary["measured"]
    checks = [
        ("retrieve_io", report.retrieve_io, measured["retrieve_io"]),
        ("update_io", report.update_io, measured["update_io"]),
        ("total_io", report.total_io, measured["retrieve_io"] + measured["update_io"]),
        ("par_cost", report.par_cost, measured["par_cost"]),
        ("child_cost", report.child_cost, measured["child_cost"]),
    ]
    return [
        "%s: reported %d != traced %d" % (name, reported, traced)
        for name, reported, traced in checks
        if reported != traced
    ]
