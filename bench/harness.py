"""Shared plumbing for the benchmark: paths, statistics, timing, records.

Everything under ``bench/`` measures the program from outside, so this
module is the only place that knows where the program lives
(:func:`bootstrap` puts ``src/`` on ``sys.path``) and where the
benchmark may write (``bench/out/``, including its temp dirs — a run
never touches a tracked file).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
TMP_DIR = os.path.join(OUT_DIR, "tmp")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")
EXPECTED_JSON = os.path.join(BENCH_DIR, "expected.json")

#: Percentiles a latency may be reported at; :func:`tail_percentile`
#: picks the highest one the sample count supports.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise BenchError("no program to measure: %s is missing" % SRC_DIR)
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``values``, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    data = sorted(values)
    pos = (len(data) - 1) * (q / 100.0)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(count: int, minimum_beyond: int = 10) -> float:
    """The highest ladder percentile with >= ``minimum_beyond`` samples
    beyond it (the median when the sample is too small for any tail)."""
    best = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER:
        # round() guards the float error in e.g. 1000 * (1 - 0.99).
        if round(count * (1.0 - q / 100.0), 9) >= minimum_beyond:
            best = q
    return best


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """``(fn(*args, **kwargs), seconds)``."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def ns_per_call(fn: Callable[[Any], Any], items: Sequence[Any]) -> float:
    """Mean nanoseconds of ``fn(item)`` over ``items`` (one timed loop)."""
    clock = time.perf_counter_ns
    t0 = clock()
    for item in items:
        fn(item)
    return (clock() - t0) / max(1, len(items))


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# scratch space
# ----------------------------------------------------------------------
def fresh_tmp(prefix: str) -> str:
    """A new temp directory under ``bench/out/tmp`` (inside the checkout)."""
    os.makedirs(TMP_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix + "-", dir=TMP_DIR)


def remove_tmp(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# set-up timing
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int, smoke: bool) -> List[float]:
    """Wall seconds of :data:`SETUP_REPEATS` fresh-interpreter set-ups.

    One set-up is everything between launching an interpreter and the
    workload being ready to measure: start-up, importing the program,
    building and freezing the database (or configuring the stores /
    starting the server), generating the operations.  Timing whole
    processes keeps the number well above clock noise on every workload
    and charges import-time work to the metric that should show it.
    """
    command = [
        sys.executable,
        os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--setup-only",
    ]
    if smoke:
        command.append("--smoke")
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise BenchError("set-up of %s exited %d" % (workload, done.returncode))
    return samples


# ----------------------------------------------------------------------
# metrics and records
# ----------------------------------------------------------------------
class Metrics:
    """Named measurements of one workload run, each with its unit.

    ``samples`` keeps the raw per-round values behind a reported median
    so a record shows every round, and ``n`` the sample count behind a
    percentile.
    """

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, Any]] = {}

    def put(
        self,
        name: str,
        value: float,
        unit: str,
        samples: Optional[Iterable[float]] = None,
        n: Optional[int] = None,
    ) -> None:
        entry: Dict[str, Any] = {"value": value, "unit": unit}
        if samples is not None:
            entry["samples"] = list(samples)
            entry["n"] = len(entry["samples"])
        if n is not None:
            entry["n"] = n
        self.values[name] = entry

    def put_median(self, name: str, samples: Sequence[float], unit: str) -> None:
        self.put(name, median(samples), unit, samples=samples)

    def put_latencies(self, samples_ms: Sequence[float]) -> None:
        """``op_ms_p50``, ``op_ms_p90`` and ``op_ms_tail`` — the highest
        ladder percentile the sample count supports — of one sample."""
        count = len(samples_ms)
        for q in (50.0, 90.0):
            self.put("op_ms_p%d" % q, percentile(samples_ms, q), "ms", n=count)
        tail = tail_percentile(count)
        self.put("op_ms_tail", percentile(samples_ms, tail), "ms", n=count)
        self.values["op_ms_tail"]["percentile"] = tail

    def put_declared(self, values: Dict[str, float]) -> None:
        """Probe results, each with the unit ``BENCHMARK.json`` declares."""
        for name, value in values.items():
            self.put(name, value, unit_of(name))

    def get(self, name: str) -> float:
        return self.values[name]["value"]


_BENCHMARK: Optional[Dict[str, Any]] = None


def load_benchmark_json() -> Dict[str, Any]:
    """``BENCHMARK.json`` — the names, units and bounds a run reports."""
    global _BENCHMARK
    if _BENCHMARK is None:
        try:
            with open(BENCHMARK_JSON) as handle:
                _BENCHMARK = json.load(handle)
        except OSError as exc:
            raise BenchError("cannot read %s: %s" % (BENCHMARK_JSON, exc))
    return _BENCHMARK


def unit_of(name: str) -> str:
    """The unit ``BENCHMARK.json`` declares for metric ``name``."""
    spec = load_benchmark_json()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    raise BenchError("metric %r is not declared in BENCHMARK.json" % name)


def trace_path(workload: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, "trace-%s.jsonl" % workload)


def environment() -> Dict[str, Any]:
    """Where and on what a record was measured."""
    from repro.util.fingerprint import code_fingerprint

    try:
        rev: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            # Never look for a repository above the checkout.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO_ROOT)),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "code_fingerprint": code_fingerprint(),
        "git_rev": rev,
    }


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def assert_untracked_outputs() -> None:
    """The program must be pointed at bench-owned directories only.

    ``configure_db_store`` is the one piece of process-wide output
    configuration the sweep layer has; anything it names outside
    ``bench/out`` would mean a run could write into ``results/``.
    """
    from repro.experiments import pool

    root = pool.DB_STORE_ROOT
    if root is not None and not os.path.abspath(root).startswith(OUT_DIR + os.sep):
        raise BenchError("snapshot store configured outside bench/out: %s" % root)
