"""repro.obs — metrics, structured I/O tracing and wall-clock profiling.

The observability layer of the reproduction.  Five pieces:

* :class:`MetricsRegistry` (:mod:`repro.obs.registry`) — tagged
  counters and percentile-capable histograms with deterministic JSON
  snapshots;
* :class:`Tracer` (:mod:`repro.obs.trace`) — hooks the simulated disk
  and emits one structured :class:`TraceEvent` per physical page
  access, tagged with relation, page kind, driver phase, strategy
  stage and sequence operation;
* :func:`validate_report` — the self-check that traced totals exactly
  equal the costs the experiments report;
* :class:`SpanProfiler` (:mod:`repro.obs.spans`) — hierarchical
  wall-clock spans over the sweep/storage/query layers, with
  percentile rollups and collapsed-stack (flamegraph) export;
* the run ledger (:mod:`repro.obs.ledger`) and live sweep dashboard
  (:mod:`repro.obs.dashboard`) those spans feed.

Tracing and profiling are strictly opt-in: with neither enabled the
storage layer pays one ``is not None`` test per page access and the
annotation helpers return shared no-op context managers.
"""

from repro.obs import spans
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.spans import SpanProfiler, profiled, span
from repro.obs.trace import (
    PAGE_KINDS,
    STAGES,
    TraceEvent,
    TraceValidationError,
    Tracer,
    active,
    classify_relation,
    normalize_relation,
    read_jsonl,
    stage,
    validate_report,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "SpanProfiler",
    "profiled",
    "span",
    "spans",
    "PAGE_KINDS",
    "STAGES",
    "TraceEvent",
    "TraceValidationError",
    "Tracer",
    "active",
    "classify_relation",
    "normalize_relation",
    "read_jsonl",
    "stage",
    "validate_report",
]
