#!/usr/bin/env python
"""Benchmark-regression gate: fail CI when the engine gets slower.

Compares a freshly produced ``BENCH_sweeps.json`` (the cold run's ledger
record, as `python -m repro report --bench-out` writes it) against a
committed baseline and exits non-zero when the cold run slowed down by
more than the tolerance (default 25%).  Only ``scale``,
``total_seconds`` and each experiment's ``name``/``seconds`` are read,
and the committed baseline holds just those.  The per-experiment
breakdown is printed either way, so a passing run still shows where time
moved.

Usage::

    python benchmarks/check_bench_regression.py BENCH_sweeps.json \
        benchmarks/BENCH_sweeps_baseline.json [--tolerance 1.25]

    python benchmarks/check_bench_regression.py results/BENCH_micro.json \
        benchmarks/BENCH_micro_baseline.json --micro [--tolerance 1.30]

Sweep mode gates only the total: per-experiment seconds at CI scale are
noisy (a few seconds each), while the total amortises scheduler jitter
over hundreds of points.  ``--micro`` mode gates each microbenchmark's
``p95_ns_per_op`` (from ``repro bench``) individually — per-op
nanoseconds over thousands of iterations are stable enough, and the p95
catches a hot path that turned erratic even when its best pass stays
fast.  Both baselines were recorded on a GitHub-runner-class core;
re-record (``--update``) whenever a deliberate engine change shifts the
cost profile.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


#: Absolute p95 growth (ns/op) below which a ratio breach is clock
#: quantization, not a regression.  A 20M-records/s scan sits at ~8
#: ns/op, where a couple of timer ticks already doubles the ratio.
MICRO_NOISE_FLOOR_NS = 50.0


def check_micro(current: dict, baseline: dict, tolerance: float) -> int:
    """Gate each microbenchmark's p95 ns/op against the baseline."""
    base_benches = baseline.get("benchmarks", {})
    failures = []
    print(
        "%-18s %12s %12s %8s" % ("benchmark", "baseline", "current", "ratio")
    )
    for name, result in sorted(current.get("benchmarks", {}).items()):
        p95 = result.get("p95_ns_per_op")
        base_p95 = base_benches.get(name, {}).get("p95_ns_per_op")
        if p95 is None:
            print("%-18s %12s %12s %8s" % (name, "-", "-", "skipped"))
            continue
        if not base_p95:
            print("%-18s %12s %9.0f ns %8s" % (name, "-", p95, "new"))
            continue
        ratio = p95 / base_p95
        breached = ratio > tolerance
        if breached and p95 - base_p95 < MICRO_NOISE_FLOOR_NS:
            marker = " (noise floor)"
            breached = False
        else:
            marker = " FAIL" if breached else ""
        print(
            "%-18s %9.0f ns %9.0f ns %7.2fx%s"
            % (name, base_p95, p95, ratio, marker)
        )
        if breached:
            failures.append(name)
    if failures:
        print(
            "FAIL: p95 ns/op slowed down by more than %d%%: %s"
            % (round((tolerance - 1) * 100), ", ".join(failures))
        )
        return 1
    print("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="BENCH_sweeps.json from this run")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.25,
        help="fail when current total exceeds baseline * TOLERANCE "
        "(default 1.25 = 25%% slowdown)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="overwrite the baseline with the current run and exit 0",
    )
    parser.add_argument(
        "--micro",
        action="store_true",
        help="compare BENCH_micro.json files: gate each benchmark's "
        "p95_ns_per_op instead of the sweep total",
    )
    args = parser.parse_args()

    current = load(args.current)
    if args.update:
        shutil.copyfile(args.current, args.baseline)
        if args.micro:
            print(
                "micro baseline updated: %d benchmark(s)"
                % len(current.get("benchmarks", {}))
            )
        else:
            print("baseline updated: total %.1fs" % current["total_seconds"])
        return 0
    baseline = load(args.baseline)

    if args.micro:
        return check_micro(current, baseline, args.tolerance)

    if current.get("scale") != baseline.get("scale"):
        print(
            "scale mismatch: current %s vs baseline %s — not comparable"
            % (current.get("scale"), baseline.get("scale"))
        )
        return 2

    base_by_name = {
        row["name"]: row for row in baseline.get("experiments", [])
    }
    print("%-28s %9s %9s %8s" % ("experiment", "baseline", "current", "ratio"))
    for row in current.get("experiments", []):
        name = row.get("name", "?")
        base_row = base_by_name.get(name)
        if base_row is None or not base_row.get("seconds"):
            print("%-28s %9s %8.2fs %8s" % (name, "-", row["seconds"], "new"))
            continue
        ratio = row["seconds"] / base_row["seconds"]
        print(
            "%-28s %8.2fs %8.2fs %7.2fx"
            % (name, base_row["seconds"], row["seconds"], ratio)
        )

    total = current["total_seconds"]
    base_total = baseline["total_seconds"]
    ratio = total / base_total
    limit = args.tolerance
    print(
        "total: baseline %.1fs, current %.1fs, ratio %.2fx (limit %.2fx)"
        % (base_total, total, ratio, limit)
    )
    if ratio > limit:
        print(
            "FAIL: cold run slowed down by more than %d%%"
            % round((limit - 1) * 100)
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
