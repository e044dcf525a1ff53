"""Run every reproduction experiment and emit the result tables.

Usage::

    python -m repro report [--scale S] [--out DIR] [--jobs N]

Writes one plain-text table plus a structured ``.json`` twin per
figure/section under ``DIR`` (default ``results/``) and prints everything
to stdout.  ``--jobs N`` fans sweep points out over N worker processes
(results are bit-identical to serial); finished points are memoized in
``DIR/.pointcache/`` so repeated or interrupted runs resume instantly
(``--no-point-cache`` disables that).  Built databases are frozen into
copy-on-write snapshots under ``DIR/.dbcache/`` — every later point,
worker and report run attaches a clone in milliseconds instead of
rebuilding (``--no-db-cache`` disables that).  Per-experiment
wall-clock, point-count and build/attach telemetry forms the run's
ledger record: one line appended to ``DIR/ledger.jsonl``, and the same
record pretty-printed to ``--bench-out`` when that is given.
EXPERIMENTS.md records a run of this module next to the paper's reported
shapes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, List, Optional, Tuple

from repro.experiments import ablations, deep, fig3, fig4, fig5, fig7, matrix, opt, sec62, smart
from repro.experiments import pool
from repro.experiments.pool import PointCache, RetryPolicy
from repro.experiments.runner import ExperimentResult
from repro.fault import plan as _fault
from repro.obs import ledger as _ledger
from repro.obs import spans as _spans
from repro.util.stats import add_counts


def experiment_suite(
    scale: float,
    jobs: int = 1,
    point_cache: Optional[PointCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> List[Tuple[str, Callable[[], ExperimentResult]]]:
    """The full reproduction, one callable per figure/table."""

    def call(fn: Callable[..., ExperimentResult], **kwargs):
        return lambda: fn(jobs=jobs, point_cache=point_cache, policy=policy, **kwargs)

    return [
        # Every figure runs at the requested scale — the engine rewrite
        # made full paper scale (1.0) practical on one core, so the old
        # per-figure caps (fig4 at 0.3, matrix at 0.4, opt at 0.3) are
        # gone.  sec62 keeps its *floor*: below scale 0.2 its
        # NumChildRel grid outnumbers the children per relation.
        ("fig3", call(fig3.run, scale=scale)),
        ("fig4", call(fig4.run, scale=scale)),
        ("fig5", call(fig5.run, scale=scale, num_retrieves=8)),
        ("fig7", call(fig7.run, scale=scale, num_retrieves=8)),
        ("sec62", call(sec62.run, scale=max(scale, 0.2))),
        ("smart", call(smart.run, scale=scale)),
        ("ablation_cache_size", call(ablations.run_cache_size, scale=scale)),
        ("ablation_buffer", call(ablations.run_buffer_size, scale=scale)),
        (
            "ablation_inside_outside",
            call(ablations.run_inside_outside, scale=scale),
        ),
        ("deep", call(deep.run, scale=scale, span=12)),
        ("matrix", call(matrix.run, scale=scale)),
        ("opt", call(opt.run, scale=scale)),
        (
            "ablation_buffer_policy",
            call(ablations.run_buffer_policy, scale=scale),
        ),
    ]


#: Every experiment name, in report order (what ``--only`` accepts).
EXPERIMENT_NAMES = [name for name, _ in experiment_suite(1.0)]


def annotate(name: str, result: ExperimentResult) -> str:
    """Append the derived headline numbers an analyst would want."""
    text = result.table()
    if name == "fig3":
        text += "\nBFS overtakes DFS at NumTop ~ %r" % fig3.crossover_num_top(result)
    elif name == "fig4":
        text += "\nregion sizes: %r" % fig4.region_counts(result)
        for face, counts in fig4.face_summary(result).items():
            text += "\n%-22s %r" % (face, counts)
    elif name == "fig5":
        text += "\nBFS overtakes DFSCLUST at ShareFactor %r" % (
            fig5.crossover_share_factor(result),
        )
    elif name == "opt":
        text += "\nmax regret: %.3f" % opt.max_regret(result)
    elif name == "sec62":
        spreads = {
            s: round(sec62.max_relative_spread(result, s), 3)
            for s in sec62.STRATEGIES
        }
        text += "\nrelative spreads: %r" % (spreads,)
    return text


def _sum_telemetry(rows: List[dict]) -> dict:
    """The counters of sweep-log entries (or of telemetry rows), summed.

    Counts add key-wise, nested counters included, and quarantined cell
    labels concatenate (order preserved, so the report footer lists
    degraded cells in sweep order).
    """
    totals: dict = {
        "points": 0,
        "cache_hits": 0,
        "executed": 0,
        "buffer": {},
        "io": {},
        "db": {},
        "faults": {
            "injections": {},
            **dict.fromkeys(pool.RECOVERY_COUNTERS, 0),
            "quarantined": [],
        },
    }
    for row in rows:
        add_counts(totals, {key: row[key] for key in totals})
    return totals


def _fault_lines(faults: dict) -> List[str]:
    """Human-readable footer lines for non-trivial fault activity."""
    lines: List[str] = []
    injected = sum(faults["injections"].values())
    recovery = {
        name: faults[name] for name in pool.RECOVERY_COUNTERS if faults[name]
    }
    if injected or recovery:
        parts = []
        if injected:
            parts.append(
                "%d fault(s) injected (%s)"
                % (
                    injected,
                    ", ".join(
                        "%s=%d" % (site, count)
                        for site, count in sorted(faults["injections"].items())
                        if count
                    ),
                )
            )
        parts += ["%s %d" % (name.replace("_", " "), value)
                  for name, value in sorted(recovery.items())]
        lines.append("[faults: %s]" % "; ".join(parts))
    if faults["quarantined"]:
        lines.append(
            "[degraded cells (quarantined after retry exhaustion): %s]"
            % ", ".join(faults["quarantined"])
        )
    return lines


def _round_floats(counters: dict, digits: int = 3) -> dict:
    return {
        key: (round(value, digits) if isinstance(value, float) else value)
        for key, value in counters.items()
    }


def jobs_arg(value: str) -> int:
    """argparse ``type=`` for ``--jobs``: a positive int, or ``auto``."""
    try:
        return pool.resolve_jobs(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def add_policy_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--max-retries``/``--point-timeout`` flags of an argparse parser
    (:func:`retry_policy` turns their values into a policy)."""
    parser.add_argument(
        "--max-retries", dest="max_retries", type=int,
        default=RetryPolicy.max_retries,
        help="per-point retry budget before the point is quarantined "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--point-timeout", dest="point_timeout", type=float,
        default=RetryPolicy.point_timeout,
        help="seconds one point may run before it counts as a failed "
        "attempt (default: no limit)",
    )


def retry_policy(args: argparse.Namespace) -> RetryPolicy:
    """The sweep policy the :func:`add_policy_arguments` flags describe."""
    return RetryPolicy(max_retries=args.max_retries, point_timeout=args.point_timeout)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``report`` flags of ``repro report``."""
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="database scale relative to the paper's 10,000 parents "
        "(default: full paper scale)",
    )
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument(
        "--only",
        nargs="*",
        choices=EXPERIMENT_NAMES,
        metavar="ONLY",
        help="subset of experiment names to run",
    )
    parser.add_argument(
        "--jobs",
        type=jobs_arg,
        default=1,
        help="worker processes for sweep points (1 = in-process, the "
        "default; 'auto' = one per core — the resolved count is "
        "recorded in the run's ledger record)",
    )
    parser.add_argument(
        "--no-point-cache",
        action="store_true",
        help="recompute every point (skip OUT/%s)" % pool.POINT_CACHE_DIRNAME,
    )
    parser.add_argument(
        "--no-db-cache",
        action="store_true",
        help="rebuild every database (skip OUT/%s)" % pool.DB_CACHE_DIRNAME,
    )
    parser.add_argument(
        "--bench-out",
        default=None,
        help="also write this run's ledger record, pretty-printed, to "
        "this path (default: not written)",
    )
    live = parser.add_mutually_exclusive_group()
    live.add_argument(
        "--live",
        dest="live",
        action="store_true",
        default=None,
        help="live sweep progress line on stderr (default: auto when "
        "stderr is a terminal)",
    )
    live.add_argument(
        "--no-live",
        dest="live",
        action="store_false",
        help="suppress the live progress line",
    )
    parser.add_argument(
        "--no-spans",
        action="store_true",
        help="disable wall-clock span profiling (drops the ledger's span "
        "rollups; measured results are identical either way)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip appending this run to OUT/%s" % _ledger.LEDGER_FILENAME,
    )
    add_policy_arguments(parser)


def run(args: argparse.Namespace) -> int:
    """Run the report an :func:`add_arguments` namespace describes."""
    os.makedirs(args.out, exist_ok=True)

    pool.configure_db_store(
        None
        if args.no_db_cache
        else os.path.join(args.out, pool.DB_CACHE_DIRNAME)
    )
    point_cache = (
        None
        if args.no_point_cache
        else PointCache(os.path.join(args.out, pool.POINT_CACHE_DIRNAME))
    )
    suite = experiment_suite(
        args.scale,
        jobs=args.jobs,
        point_cache=point_cache,
        policy=retry_policy(args),
    )

    live = args.live
    if live is None:
        live = sys.stderr.isatty()
    dashboard = None
    if live:
        from repro.obs.dashboard import SweepDashboard

        dashboard = SweepDashboard()
        pool.set_progress(dashboard)
    # Span profiling is on by default for report runs: spans are
    # digest-neutral by construction (they never touch the simulated
    # counters), and the ledger's wall-clock rollups come from them.
    # The library-level default stays off; only this entry point opts in.
    prof = None if args.no_spans else _spans.enable(_spans.SpanProfiler())

    telemetry: List[dict] = []
    t_start = time.perf_counter()
    try:
        for name, run_experiment in suite:
            if args.only and name not in args.only:
                continue
            if dashboard is not None:
                dashboard.set_experiment(name)
            sweeps_before = len(pool.SWEEP_LOG)
            t0 = time.perf_counter()
            result = run_experiment()
            seconds = time.perf_counter() - t0
            row = _sum_telemetry(pool.SWEEP_LOG[sweeps_before:])
            row["db"] = _round_floats(row["db"])
            telemetry.append({"name": name, "seconds": round(seconds, 3), **row})
            buffer, faults = row["buffer"], row["faults"]
            text = annotate(name, result)
            accesses = buffer.get("hits", 0) + buffer.get("misses", 0)
            if accesses:
                text += (
                    "\n[buffer pool: %d accesses, hit rate %.3f, "
                    "%d evictions (%d dirty)]"
                    % (
                        accesses,
                        buffer["hits"] / accesses,
                        buffer.get("evictions", 0),
                        buffer.get("dirty_evictions", 0),
                    )
                )
            for line in _fault_lines(faults):
                text += "\n" + line
            print(text)
            print()
            with open(os.path.join(args.out, "%s.txt" % name), "w") as handle:
                handle.write(text + "\n")
            result.write_json(os.path.join(args.out, "%s.json" % name))
    finally:
        if dashboard is not None:
            pool.set_progress(None)
            dashboard.finish()
        if prof is not None:
            _spans.disable()
    total_seconds = time.perf_counter() - t_start
    print("total: %.1fs" % total_seconds)

    plan = _fault.active()
    fault_config = None
    if plan is not None:
        fault_config = {
            "seed": plan.seed,
            "sites": {
                site: {
                    "rate": spec.rate,
                    "count": spec.count,
                    "after": spec.after,
                }
                for site, spec in sorted(plan.specs.items())
            },
        }
    store = pool._db_store()
    totals = _sum_telemetry(telemetry)
    # ``jobs`` is always the *resolved* worker count (``--jobs
    # auto`` resolves before it gets here).
    record = _ledger.report_record(
        scale=args.scale,
        jobs=args.jobs,
        total_seconds=total_seconds,
        experiments=telemetry,
        faults=totals["faults"],
        db=_round_floats(totals["db"]),
        point_cache=point_cache.stats_snapshot() if point_cache else {},
        fingerprint=pool.code_fingerprint()[:16],
        spans=prof.rollups() if prof is not None and prof.stats else None,
        fault_config=fault_config,
    )
    record["db_bytes_on_disk"] = store.bytes_on_disk() if store else 0
    if not args.no_ledger:
        _ledger.RunLedger(
            os.path.join(args.out, _ledger.LEDGER_FILENAME)
        ).append(record)
    if args.bench_out:
        with open(args.bench_out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0

