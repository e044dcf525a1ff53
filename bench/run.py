#!/usr/bin/env python3
"""Run the benchmark: six workloads, every metric by name, outputs checked.

    python3 bench/run.py                          # all six, end-to-end metrics
    python3 bench/run.py --trace                  # ... plus the traced per-layer pass
    python3 bench/run.py --workload scan_bfs --seed 7 --seconds 12 --trace 0

One workload runs in this interpreter; without ``--workload`` each of
the six gets a fresh interpreter, one after the other, so registries,
module caches and peak RSS never leak between workloads.  The last line
of standard output is one JSON object — ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` declares for the mode
(``--trace 0``: end-to-end, ``--trace 1``: per-layer).  Every run also
leaves a full record (all metrics, raw rounds, sample counts, seed,
environment) under ``bench/out/``.  The exit code is non-zero when an
output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import harness

DEFAULT_SEED = 42


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    spec = harness.load_benchmark_json()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this interpreter (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of every generated input (default %d)" % DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="length of the measuring window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced per-layer pass (all workloads: both passes)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for testing the harness; never comparable")
    parser.add_argument("--update-expected", action="store_true",
                        help="pin this seed's ledgers in bench/expected.json")
    parser.add_argument("--record", help="where to write the run's record")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# pinned ledgers
# ----------------------------------------------------------------------
def _load_expected() -> Dict[str, Dict[str, Any]]:
    try:
        with open(harness.EXPECTED_JSON) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def _expected_for(seed: int, workload: str) -> Optional[Dict[str, Any]]:
    return _load_expected().get(str(seed), {}).get(workload)


def _pin(seed: int, workload: str, pins: Dict[str, Any]) -> None:
    expected = _load_expected()
    expected.setdefault(str(seed), {})[workload] = pins
    harness.write_json(harness.EXPECTED_JSON, expected)


# ----------------------------------------------------------------------
# one workload, in this interpreter
# ----------------------------------------------------------------------
def _workload(name: str) -> Tuple[Any, Tuple[str, ...]]:
    """``(module, leading arguments)`` of a workload's ``run``/``setup_only``.

    Imported on demand: a workload's interpreter loads only its own
    slice of the program.
    """
    if name == "report_grid":
        import wl_grid

        return wl_grid, ()
    if name == "serve_mix":
        import wl_serve

        return wl_serve, ()
    import wl_engine

    return wl_engine, (name,)


def _declared(trace: int) -> List[Dict[str, Any]]:
    spec = harness.load_benchmark_json()
    return spec["per_layer"] if trace else spec["end_to_end"]


def run_workload(args: argparse.Namespace) -> int:
    harness.bootstrap()
    module, lead = _workload(args.workload)
    if args.setup_only:
        module.setup_only(*lead, args.seed, args.smoke)
        return 0
    env = harness.environment()  # load average as the run starts
    pinned = None if (args.smoke or args.update_expected) else _expected_for(
        args.seed, args.workload
    )
    setup_samples = (
        [] if args.trace else harness.measure_setup(args.workload, args.seed, args.smoke)
    )
    t0 = time.perf_counter()
    result = module.run(*lead, args.seed, args.seconds, bool(args.trace), args.smoke, pinned)
    elapsed = time.perf_counter() - t0
    metrics: harness.Metrics = result["metrics"]
    if setup_samples:
        metrics.put_median("setup_s", setup_samples, "s")

    if args.trace:
        # Latency as the workload's caller saw it in the untraced reference.
        for name in ("op_ms_p50", "op_ms_p90", "op_ms_tail"):
            if name in metrics.values:
                metrics.values["client." + name] = metrics.values[name]

    problems = list(result["problems"])
    reported: Dict[str, Dict[str, Any]] = {}
    for metric in _declared(args.trace):
        entry = metrics.values.get(metric["name"])
        if entry is None:
            if not args.trace:
                problems.append("end-to-end metric %s was not measured" % metric["name"])
                continue
            # A layer this workload does not exercise reads zero.
            entry = {"value": 0.0, "unit": metric["unit"], "not_applicable": True}
            metrics.values[metric["name"]] = entry
        reported[metric["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    correct = bool(result["correct"]) and not problems

    print("%s  seed=%d  seconds=%g  trace=%d%s  (%.1f s)" % (
        args.workload, args.seed, args.seconds, args.trace,
        "  SMOKE" if args.smoke else "", elapsed))
    for name, entry in metrics.values.items():
        if entry.get("not_applicable"):
            continue
        note = "  (n=%d)" % entry["n"] if "n" in entry else ""
        print("  %-44s %16.6g %s%s" % (name, entry["value"], entry["unit"], note))
    for problem in problems:
        print("  PROBLEM: %s" % problem)

    if args.update_expected and correct and not args.smoke:
        _pin(args.seed, args.workload, result["pins"])
        print("  pinned seed %d in %s" % (args.seed, harness.EXPECTED_JSON))

    section = "per_layer" if args.trace else "end_to_end"
    record = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "env": env,
        "workloads": {
            args.workload: {
                section: metrics.values,
                "pins": result["pins"],
                "checked_against_pins": pinned is not None,
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "problems": problems,
            }
        },
    }
    path = args.record or os.path.join(
        harness.OUT_DIR,
        "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace, time.time_ns()),
    )
    harness.write_json(path, record)

    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": reported,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# all six, each in a fresh interpreter
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    harness.bootstrap()
    spec = harness.load_benchmark_json()
    merged: Dict[str, Any] = {}
    status = 0
    stamp = time.time_ns()
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in ((0, 1) if args.trace else (0,)):
            part = os.path.join(harness.OUT_DIR, "part-%d-%s-%d.json" % (stamp, name, trace))
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--record", part,
            ]
            if args.smoke:
                command.append("--smoke")
            if args.update_expected:
                command.append("--update-expected")
            done = subprocess.run(command)
            status = status or done.returncode
            try:
                with open(part) as handle:
                    record = json.load(handle)
            except FileNotFoundError:
                continue  # the child died first; its exit status says so
            os.unlink(part)
            entry = record["workloads"][name]
            if not merged:
                merged = {key: record[key] for key in
                          ("schema", "seed", "seconds", "smoke", "env")}
                merged["workloads"] = {}
            into = merged["workloads"].setdefault(name, {"correct": True, "problems": []})
            for key, value in entry.items():
                if key == "correct":
                    into["correct"] = into["correct"] and value
                elif key == "problems":
                    into["problems"].extend(value)
                elif trace == 0 or key == "per_layer":
                    into[key] = value
    path = args.record or os.path.join(
        harness.OUT_DIR, "run-seed%d-%d.json" % (args.seed, stamp)
    )
    if merged:
        harness.write_json(path, merged)
        print("record: %s" % path)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse(argv)
        return run_workload(args) if args.workload else run_all(args)
    except harness.BenchError as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
