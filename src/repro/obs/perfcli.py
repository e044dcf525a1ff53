"""``repro perf`` — render the run ledger and export flamegraphs.

Reads ``results/ledger.jsonl`` (see :mod:`repro.obs.ledger`) and turns
it into the views an engineer tracking the reproduction's performance
wants:

* **trend** (the default): one row per report run (when / git / scale /
  jobs / wall seconds / peak RSS / point counts), then a per-experiment
  wall-time diff of the two most recent *comparable* runs (same scale
  and jobs) with regressions past the threshold flagged, then the
  latest run's span rollups (count, total, p50/p95/p99 ms per span
  path), then — when ``repro serve`` records exist — the serving-layer
  trend (throughput, latency percentiles, publish lag, peak RSS) with
  p95 latency regressions flagged at the same threshold;
* **flame**: collapsed-stack output for flamegraph.pl / speedscope,
  either from a fresh span-profiled measurement run (the default) or
  converted from a ``--profile`` cProfile dump (``--pstats``).

Wall-clock numbers vary run to run — the trend view is for spotting
order-of-magnitude drifts and regressions, not for sub-percent deltas.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.ledger import LEDGER_FILENAME, RunLedger
from repro.util.fmt import format_table

#: Relative wall-time growth beyond which an experiment is flagged.
DEFAULT_THRESHOLD = 0.25


def _when(record: Dict[str, Any]) -> str:
    ts = record.get("ts")
    if not ts:
        return "?"
    return time.strftime("%Y-%m-%d %H:%M", time.localtime(ts))


def _peak_mb(record: Dict[str, Any]) -> str:
    peak = record.get("peak_rss_mb")
    return "-" if peak is None else "%.1f" % peak


# ----------------------------------------------------------------------
# trend rendering
# ----------------------------------------------------------------------
def render_trend(
    records: List[Dict[str, Any]], last: int = 10
) -> Optional[str]:
    """The run-history table over the most recent ``last`` report runs."""
    if not records:
        return None
    rows = []
    for record in records[-last:]:
        experiments = record.get("experiments", [])
        rows.append(
            [
                _when(record),
                record.get("git", "?"),
                record.get("scale", "?"),
                record.get("jobs", "?"),
                "%.1f" % record.get("total_seconds", 0.0),
                _peak_mb(record),
                sum(e.get("points", 0) for e in experiments),
                sum(e.get("executed", 0) for e in experiments),
                len(record.get("quarantined", [])),
            ]
        )
    return format_table(
        ["when", "git", "scale", "jobs", "total_s", "peak_mb", "points",
         "executed", "quarantined"],
        rows,
        title="Report runs (%d of %d in ledger)"
        % (len(rows), len(records)),
    )


def comparable_pair(
    records: List[Dict[str, Any]]
) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """The latest record plus the most recent earlier run at the same
    scale and job count (wall times at different scales don't compare)."""
    if len(records) < 2:
        return None
    latest = records[-1]
    for earlier in reversed(records[:-1]):
        if (
            earlier.get("scale") == latest.get("scale")
            and earlier.get("jobs") == latest.get("jobs")
        ):
            return earlier, latest
    return None


def render_diff(
    earlier: Dict[str, Any],
    latest: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[str, List[str]]:
    """Per-experiment wall-time delta table plus flagged regressions.

    An experiment is only flagged when it re-executed points in both
    runs — a fully point-cache-served run finishes in milliseconds and
    comparing it against a cold run would flag noise.
    """
    base = {e["name"]: e for e in earlier.get("experiments", [])}
    rows = []
    flagged: List[str] = []
    for entry in latest.get("experiments", []):
        name = entry["name"]
        before = base.get(name)
        seconds = entry.get("seconds", 0.0)
        if before is None:
            rows.append([name, "-", "%.2f" % seconds, "new", ""])
            continue
        prev_seconds = before.get("seconds", 0.0)
        delta = seconds - prev_seconds
        pct = (delta / prev_seconds * 100.0) if prev_seconds else 0.0
        marker = ""
        both_executed = entry.get("executed", 0) and before.get("executed", 0)
        if both_executed and prev_seconds and delta / prev_seconds > threshold:
            marker = "REGRESSED"
            flagged.append(
                "%s: %.2fs -> %.2fs (+%.0f%%)" % (name, prev_seconds, seconds, pct)
            )
        rows.append(
            [
                name,
                "%.2f" % prev_seconds,
                "%.2f" % seconds,
                "%+.0f%%" % pct,
                marker,
            ]
        )
    table = format_table(
        ["experiment", "prev_s", "last_s", "delta", ""],
        rows,
        title="Wall time vs previous comparable run (%s -> %s)"
        % (_when(earlier), _when(latest)),
    )
    return table, flagged


def render_spans(record: Dict[str, Any], limit: int = 14) -> Optional[str]:
    """The span rollups of one report record, hottest paths first."""
    spans = record.get("spans")
    if not spans:
        return None
    ranked = sorted(
        spans.items(), key=lambda item: -item[1].get("total_ms", 0.0)
    )
    rows = [
        [
            path,
            rollup.get("count", 0),
            rollup.get("total_ms", 0.0),
            rollup.get("p50_ms", 0.0),
            rollup.get("p95_ms", 0.0),
            rollup.get("p99_ms", 0.0),
        ]
        for path, rollup in ranked[:limit]
    ]
    return format_table(
        ["span path", "count", "total_ms", "p50_ms", "p95_ms", "p99_ms"],
        rows,
        title="Span rollups of the latest run (top %d by total)" % len(rows),
    )


def render_serve(
    records: List[Dict[str, Any]],
    last: int = 10,
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[Optional[str], List[str]]:
    """Serve-run trend table plus flagged p95 latency regressions.

    One row per ``kind="serve"`` ledger record: throughput, client-side
    retrieve latency percentiles, publish-lag p95, shed counts and peak
    RSS (``-`` for records written before it was recorded).  The
    latest run's retrieve p95 is compared against the most recent
    earlier run with the same scale/clients/readers shape; growth past
    ``threshold`` is flagged exactly like sweep wall-time regressions.
    """
    if not records:
        return None, []
    rows = []
    for record in records[-last:]:
        latency = record.get("latency_ms", {}).get("retrieve", {})
        publish = record.get("publish", {})
        requests = record.get("requests", {})
        rows.append(
            [
                _when(record),
                record.get("git", "?"),
                record.get("scale", "?"),
                record.get("clients", "?"),
                record.get("throughput_rps", "?"),
                "%.1f" % latency.get("p50", 0.0),
                "%.1f" % latency.get("p95", 0.0),
                "%.1f" % latency.get("p99", 0.0),
                "%.1f" % publish.get("lag_ms", {}).get("p95", 0.0),
                requests.get("shed", 0),
                _peak_mb(record),
                {True: "yes", False: "NO", None: "-"}[record.get("verified")],
            ]
        )
    table = format_table(
        ["when", "git", "scale", "clients", "rps", "p50_ms", "p95_ms",
         "p99_ms", "lag_p95", "shed", "peak_mb", "verified"],
        rows,
        title="Serve runs (%d of %d in ledger)" % (len(rows), len(records)),
    )
    flagged: List[str] = []
    latest = records[-1]
    for earlier in reversed(records[:-1]):
        if all(
            earlier.get(key) == latest.get(key)
            for key in ("scale", "clients", "readers")
        ):
            before = earlier.get("latency_ms", {}).get("retrieve", {}).get("p95")
            after = latest.get("latency_ms", {}).get("retrieve", {}).get("p95")
            if before and after and (after - before) / before > threshold:
                flagged.append(
                    "serve retrieve p95: %.1fms -> %.1fms (+%.0f%%)"
                    % (before, after, (after - before) / before * 100.0)
                )
            break
    return table, flagged


def perf_trend(
    out_dir: str, last: int = 10, threshold: float = DEFAULT_THRESHOLD
) -> int:
    """The default ``repro perf`` view; returns a process exit code."""
    ledger = RunLedger(os.path.join(out_dir, LEDGER_FILENAME))
    reports = ledger.read("report")
    serves = ledger.read("serve")
    if not reports and not serves:
        print(
            "no ledger at %s — run `repro report` (or `repro serve`) first"
            % ledger.path
        )
        return 1
    flagged: List[str] = []
    trend = render_trend(reports, last=last)
    if trend:
        print(trend)
    pair = comparable_pair(reports)
    if pair:
        table, flagged = render_diff(pair[0], pair[1], threshold=threshold)
        print()
        print(table)
    elif len(reports) >= 2:
        print()
        print(
            "(no earlier run matches the latest run's scale/jobs — "
            "wall-time diff skipped)"
        )
    if reports:
        spans_table = render_spans(reports[-1])
        if spans_table:
            print()
            print(spans_table)
    serve_table, serve_flagged = render_serve(
        serves, last=last, threshold=threshold
    )
    if serve_table:
        print()
        print(serve_table)
        flagged.extend(serve_flagged)
    if flagged:
        print()
        for line in flagged:
            print("REGRESSION: %s" % line)
    return 0


# ----------------------------------------------------------------------
# flamegraph export
# ----------------------------------------------------------------------
def collapsed_from_pstats(path: str) -> str:
    """Collapsed-stack text from a ``--profile`` ``.pstats`` dump.

    cProfile keeps caller/callee *edges*, not full stacks, so the
    export approximates each function's time as two-frame stacks
    ``caller;callee`` weighted by the per-edge internal time — shallow
    but honest, and enough to eyeball where the time goes.
    """
    import pstats

    stats = pstats.Stats(path)
    lines: List[str] = []

    def label(func: Tuple[str, int, str]) -> str:
        filename, _line, name = func
        module = os.path.basename(filename).rsplit(".", 1)[0]
        return "%s:%s" % (module, name) if module else name

    for func, (cc, nc, tt, ct, callers) in sorted(stats.stats.items()):
        if callers:
            for caller, (_cc, _nc, caller_tt, _ct) in sorted(callers.items()):
                micros = int(caller_tt * 1e6)
                if micros:
                    lines.append(
                        "%s;%s %d" % (label(caller), label(func), micros)
                    )
        else:
            micros = int(tt * 1e6)
            if micros:
                lines.append("%s %d" % (label(func), micros))
    return "\n".join(lines) + ("\n" if lines else "")


def collapsed_from_run(scale: float, strategy: str) -> str:
    """Collapsed spans of one fresh span-profiled measurement run."""
    from repro.obs import spans as _spans
    from repro.workload.driver import measure_strategy
    from repro.workload.params import WorkloadParams

    params = WorkloadParams().scaled(scale)
    with _spans.profiled() as prof:
        measure_strategy(params, strategy)
    return prof.collapsed()


def perf_flame(
    out_dir: str,
    pstats_path: Optional[str] = None,
    scale: float = 0.05,
    strategy: str = "BFS",
    flame_out: Optional[str] = None,
) -> int:
    """``repro perf flame``: write collapsed stacks, print the path."""
    if pstats_path:
        text = collapsed_from_pstats(pstats_path)
        default_name = "flame-%s.txt" % (
            os.path.basename(pstats_path).rsplit(".", 1)[0]
        )
    else:
        text = collapsed_from_run(scale, strategy)
        default_name = "flame-spans-%s.txt" % strategy
    if not text:
        print("nothing to export (no samples)")
        return 1
    path = flame_out or os.path.join(out_dir, default_name)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)
    print(
        "wrote %d collapsed stack(s) to %s" % (text.count("\n"), path)
    )
    print(
        "render with: flamegraph.pl %s > flame.svg  (or load in speedscope)"
        % path
    )
    return 0
