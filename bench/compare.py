#!/usr/bin/env python3
"""Compare two benchmark records: ``python3 bench/compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one
commit), B the candidate.  Every gated metric of every workload gets its
own row and one verdict:

``same``        B is within the metric's bound of A;
``better``      B is beyond the bound on the good side;
``worse``       B is beyond the bound on the bad side;
``unresolved``  B is beyond the bound, but the rounds inside the two
                runs scatter by more than the bound and overlap — the
                runs cannot tell the two apart.

The bound is ``max(relative bound x |A|, absolute floor)``; the floor
keeps near-zero values from failing on clock noise.  Counts that must
repeat exactly (the simulated-I/O ledgers, table digests, buffer, cache
and disk counters) are compared for equality when both records used the
same seed.  Exit status: 1 on any ``worse`` or exact difference, 2 when
a record cannot be compared (a ``--smoke`` record, a failed run), else 0.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

import harness

#: Gated metrics beyond those BENCHMARK.json bounds: the ones only some
#: workloads have.  name -> (better, relative bound).
DETAIL_BOUNDS: Dict[str, Tuple[str, float]] = {
    "cold_wall_s": ("lower", 0.10),
    "warm_wall_s": ("lower", 0.10),
    "op_ms_p50": ("lower", 0.25),
    "op_ms_p90": ("lower", 0.25),
    "op_ms_tail": ("lower", 0.25),
    "update_ack_ms_p50": ("lower", 0.25),
    "update_ack_ms_p95": ("lower", 0.25),
    "failed_share": ("lower", 0.0),
}

#: Absolute floors of the bound, in the metric's own unit.
FLOORS: Dict[str, float] = {
    "setup_s": 0.020,
    "cold_wall_s": 0.020,
    "warm_wall_s": 0.002,
    "op_ms_p50": 0.2,
    "op_ms_p90": 0.2,
    "op_ms_tail": 0.2,
    "update_ack_ms_p50": 0.2,
    "update_ack_ms_p95": 0.2,
}

#: Per-layer units whose values are counts of a deterministic program.
EXACT_UNITS = ("count", "pages")

#: The multi-threaded workload: its counts depend on thread timing.
TIMING_DEPENDENT = ("serve_mix",)


class Refused(Exception):
    """A record that must not be compared."""


def load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        record = json.load(handle)
    if record.get("smoke"):
        raise Refused("%s is a --smoke record; smoke sizes measure nothing" % path)
    return record


def gates() -> Dict[str, Tuple[str, float]]:
    """name -> (better, relative bound) for every gated metric."""
    table = {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in harness.load_benchmark_json()["end_to_end"]
    }
    table.update(DETAIL_BOUNDS)
    return table


def verdict(name: str, better: str, relative: float,
            base: Dict[str, Any], candidate: Dict[str, Any]) -> Tuple[str, float]:
    """``(verdict, bound in the metric's unit)`` for one metric."""
    a, b = base["value"], candidate["value"]
    bound = max(relative * abs(a), FLOORS.get(name, 0.0))
    worse_by = (b - a) if better == "lower" else (a - b)
    if abs(worse_by) <= bound:
        return "same", bound
    rounds_a, rounds_b = base.get("samples"), candidate.get("samples")
    if rounds_a and rounds_b and len(rounds_a) > 1 and len(rounds_b) > 1:
        scatter = max(
            harness.quartiles(rounds)[2] - harness.quartiles(rounds)[0]
            for rounds in (rounds_a, rounds_b)
        )
        overlap = min(rounds_a) <= max(rounds_b) and min(rounds_b) <= max(rounds_a)
        if scatter > bound and overlap:
            return "unresolved", bound
    return ("worse" if worse_by > 0 else "better"), bound


def exact_differences(workload: str, base: Dict[str, Any],
                      candidate: Dict[str, Any]) -> Iterator[str]:
    """Every count that should have repeated exactly and did not."""
    if base.get("pins") != candidate.get("pins"):
        yield "pinned ledger: %r != %r" % (base.get("pins"), candidate.get("pins"))
    if workload in TIMING_DEPENDENT:
        return
    layers_a, layers_b = base.get("per_layer", {}), candidate.get("per_layer", {})
    for name in sorted(set(layers_a) & set(layers_b)):
        a, b = layers_a[name], layers_b[name]
        if a["unit"] in EXACT_UNITS and a["value"] != b["value"]:
            yield "%s: %r != %r" % (name, a["value"], b["value"])


def compare(base: Dict[str, Any], candidate: Dict[str, Any]) -> Tuple[List[List[str]], int]:
    """``(rows, exit status)`` — one row per workload x gated metric."""
    rows: List[List[str]] = []
    status = 0
    same_seed = base.get("seed") == candidate.get("seed")
    table = gates()
    for workload in base["workloads"]:
        entry_a = base["workloads"][workload]
        entry_b = candidate["workloads"].get(workload)
        if entry_b is None:
            continue
        for side, entry in (("A", entry_a), ("B", entry_b)):
            if not entry.get("correct", False):
                raise Refused("%s of %s failed its output checks" % (workload, side))
        metrics_a = entry_a.get("end_to_end", {})
        metrics_b = entry_b.get("end_to_end", {})
        for name, (better, relative) in table.items():
            if name not in metrics_a or name not in metrics_b:
                continue
            if name == "sim_io_per_retrieve" and same_seed:
                continue  # compared exactly, below
            outcome, bound = verdict(name, better, relative, metrics_a[name], metrics_b[name])
            a, b = metrics_a[name]["value"], metrics_b[name]["value"]
            change = "%+.1f%%" % (100.0 * (b - a) / a) if a else "n/a"
            rows.append([workload, name, "%.6g" % a, "%.6g" % b, change,
                         "%.3g %s" % (bound, metrics_a[name]["unit"]), outcome])
            if outcome == "worse":
                status = 1
        if same_seed:
            for difference in exact_differences(workload, entry_a, entry_b):
                rows.append([workload, "exact", "", "", "", "0", "DIFFERS " + difference])
                status = 1
    return rows, status


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[0] + "\n")
        return 2
    try:
        base, candidate = load(argv[0]), load(argv[1])
        rows, status = compare(base, candidate)
    except Refused as exc:
        sys.stderr.write("compare: %s\n" % exc)
        return 2
    header = ["workload", "metric", "A", "B", "change", "bound", "verdict"]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    if base.get("seed") != candidate.get("seed"):
        print("seeds differ (%s vs %s): exact counts not compared"
              % (base.get("seed"), candidate.get("seed")))
    return status


if __name__ == "__main__":
    sys.exit(main())
