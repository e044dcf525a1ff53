"""The persistent run ledger: ``results/ledger.jsonl``.

Every full report run and every serve run appends one JSON
record to an append-only JSONL file, so the performance trajectory of
the reproduction is queryable across commits (``repro perf`` renders
the trend and flags regressions).  One line per run keeps the file
git-mergeable and makes partial writes survivable: a torn or corrupt
line is skipped on read, never fatal — the ledger is telemetry, and
telemetry must not sink a run.

Record schema (``schema`` = :data:`LEDGER_SCHEMA`):

* common: ``schema``, ``kind`` (``"report"`` | ``"serve"``), ``ts``
  (unix seconds), ``git`` (short revision or ``"unknown"``),
  ``python``, ``fingerprint`` (source fingerprint prefix),
  ``peak_rss_mb`` (peak resident set size of the recording process,
  MiB — pool workers not included; absent from older records);
* ``kind == "report"``: ``scale``, ``jobs``, ``total_seconds``,
  ``experiments`` (one row each: name, wall seconds, point counts and
  the buffer/io/db/faults counters), the run totals ``buffer``, ``db``,
  ``point_cache``, ``faults`` and ``quarantined``, the host facts
  ``db_bytes_on_disk`` and ``cpu_count``, and ``spans`` — the
  :meth:`~repro.obs.spans.SpanProfiler.rollups` of the run, keyed by
  ``;``-joined span path with count/total/self/p50/p95/p99 ms.
  ``repro report --bench-out`` writes this record pretty-printed;
* ``kind == "serve"`` (schema >= 2): serving-layer configuration
  (``scale``, ``clients``, ``readers``, ``queue_depth``,
  ``publish_interval``, ``pr_update``, ``strategy``, ``duration``),
  ``requests`` counters, per-kind latency percentiles (``latency_ms``),
  ``publish`` counters (publishes, crashes, lag percentiles, live/max
  versions) and the ``verified`` oracle outcome.

Wall-clock numbers in the ledger are *annotations*: nothing here feeds
measured I/O counts, trace digests or cached point payloads.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

#: Version stamp on every record; bump on incompatible shape changes.
#: 2: adds the ``kind == "serve"`` record family (serving-layer runs).
LEDGER_SCHEMA = 2

#: Default ledger filename (under the report output directory).
LEDGER_FILENAME = "ledger.jsonl"


def git_revision(root: Optional[str] = None) -> str:
    """The current short git revision, read straight from ``.git``.

    Parses ``HEAD`` (and the ref file or ``packed-refs`` it points to)
    without spawning a subprocess; any surprise — no repository, a git
    layout this parser does not know — degrades to ``"unknown"``.
    """
    try:
        directory = os.path.abspath(root or os.getcwd())
        git_dir = None
        while True:
            candidate = os.path.join(directory, ".git")
            if os.path.isdir(candidate):
                git_dir = candidate
                break
            parent = os.path.dirname(directory)
            if parent == directory:
                return "unknown"
            directory = parent
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref:"):
            return head[:12] or "unknown"
        ref = head.split(None, 1)[1]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()[:12] or "unknown"
        packed = os.path.join(git_dir, "packed-refs")
        if os.path.exists(packed):
            with open(packed) as handle:
                for line in handle:
                    line = line.strip()
                    if line.endswith(" " + ref):
                        return line.split(None, 1)[0][:12]
        return "unknown"
    except OSError:
        return "unknown"


class RunLedger:
    """Append-only JSONL ledger of report and serve runs."""

    def __init__(self, path: str) -> None:
        self.path = path

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one record (stamped with schema/ts/git if missing)."""
        record.setdefault("schema", LEDGER_SCHEMA)
        record.setdefault("ts", round(time.time(), 3))
        record.setdefault("git", git_revision())
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        line = json.dumps(record, sort_keys=True)
        # One os-level append of one line: concurrent writers may
        # interleave *records* but never bytes within a record on POSIX.
        with open(self.path, "a") as handle:
            handle.write(line + "\n")
        return record

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def read(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Every parseable record, in file (= chronological) order.

        Lines that fail to parse or are not JSON objects are skipped —
        a half-written final line from a killed run must not take the
        whole history with it.
        """
        records: List[Dict[str, Any]] = []
        try:
            handle = open(self.path)
        except OSError:
            return records
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict):
                    continue
                if kind is not None and record.get("kind") != kind:
                    continue
                records.append(record)
        return records

    def last(self, count: int, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """The most recent ``count`` records (oldest of them first)."""
        return self.read(kind)[-count:]


# ----------------------------------------------------------------------
# record builders
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    import resource

    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def report_record(
    *,
    scale: float,
    jobs: int,
    total_seconds: float,
    experiments: List[Dict[str, Any]],
    faults: Dict[str, Any],
    db: Dict[str, Any],
    point_cache: Dict[str, Any],
    fingerprint: str,
    spans: Optional[Dict[str, Any]] = None,
    fault_config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One ``kind="report"`` ledger record from report-run telemetry.

    ``experiments`` is the report runner's telemetry list (one dict per
    experiment with name/seconds/points/cache_hits/executed and the
    buffer/io/db/faults counters); rows are kept as they are, and the
    buffer counters are also summed into a run total.
    """
    import sys

    buffer_totals: Dict[str, int] = {}
    for entry in experiments:
        for key, value in entry.get("buffer", {}).items():
            buffer_totals[key] = buffer_totals.get(key, 0) + value
    record: Dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "kind": "report",
        "git": git_revision(),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "cpu_count": os.cpu_count(),
        "fingerprint": fingerprint,
        "scale": scale,
        "jobs": jobs,
        "total_seconds": round(total_seconds, 3),
        "peak_rss_mb": peak_rss_mb(),
        "experiments": experiments,
        "buffer": buffer_totals,
        "db": db,
        "point_cache": point_cache,
        "faults": {
            key: value
            for key, value in faults.items()
            if key != "quarantined"
        },
        "quarantined": list(faults.get("quarantined", [])),
    }
    if fault_config:
        record["fault_config"] = fault_config
    if spans:
        record["spans"] = spans
    return record


def serve_record(
    *,
    config: Dict[str, Any],
    requests: Dict[str, Any],
    latency_ms: Dict[str, Dict[str, float]],
    publish: Dict[str, Any],
    admission: Dict[str, Any],
    verified: Optional[bool],
    fingerprint: str,
) -> Dict[str, Any]:
    """One ``kind="serve"`` ledger record from a serving-layer run.

    ``config`` carries the run shape (scale/clients/readers/...),
    ``latency_ms`` maps request kind to p50/p95/p99 client latency, and
    ``publish`` the version-chain counters plus publish-lag percentiles
    — the fields ``repro perf`` trends and regression-gates.
    """
    import sys

    record: Dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "kind": "serve",
        "git": git_revision(),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "fingerprint": fingerprint,
        "peak_rss_mb": peak_rss_mb(),
        "requests": requests,
        "latency_ms": latency_ms,
        "publish": publish,
        "admission": admission,
        "verified": verified,
    }
    record.update(config)
    return record
