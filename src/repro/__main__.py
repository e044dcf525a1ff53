"""Command-line interface.

Usage::

    python -m repro list                      # strategies & matrix
    python -m repro run --strategy BFS --scale 0.1 --num-top 50
    python -m repro report --scale 0.5        # every figure/table
    python -m repro perf --out results        # run-ledger trends
    python -m repro footprint --scale 0.1     # storage requirements
    python -m repro explain --strategy BFS --num-top 200
    python -m repro trace --strategy DFSCACHE --scale 0.05
    python -m repro dbcache ls                # stored database snapshots
    python -m repro chaos --scale 0.1         # fault-injected sweep check
    python -m repro serve --scale 0.1         # MVCC serving under load
    python -m repro fuzz --profile quick      # storage state machines
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro import __version__
from repro.core.representations import matrix_summary
from repro.core.strategies import REGISTRY, make_strategy
from repro.util.fmt import format_kv, format_table
from repro.workload.generator import build_database
from repro.workload.params import WorkloadParams


def _params_from_args(args: argparse.Namespace) -> WorkloadParams:
    params = WorkloadParams().scaled(args.scale)
    overrides = {}
    for name in ("num_top", "pr_update", "use_factor", "overlap_factor",
                 "num_queries", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if overrides:
        params = params.replace(**overrides)
    return params


def cmd_list(args: argparse.Namespace) -> int:
    print("repro %s — Jhingran & Stonebraker (ICDE 1990) reproduction\n" % __version__)
    rows = []
    for name in sorted(REGISTRY):
        strategy = REGISTRY[name]
        rows.append(
            [
                name,
                "yes" if strategy.uses_cache else "no",
                "yes" if strategy.uses_clustering else "no",
                (strategy.__doc__ or "").strip().splitlines()[0],
            ]
        )
    print(format_table(["strategy", "cache", "clustering", "description"], rows))
    print()
    print("Representation matrix (Figure 1):")
    cells = [
        [primary, cached, "ok" if valid else "shaded"]
        for primary, cached, valid in matrix_summary()
    ]
    print(format_table(["primary", "cached", "validity"], cells))
    return 0


def _run_profiled(args: argparse.Namespace, fn):
    """Run ``fn`` under cProfile when ``--profile`` was given.

    Prints the top 30 entries by cumulative time and saves the raw
    ``.pstats`` dump under the results directory for later analysis
    (``python -m pstats results/profile-<command>.pstats``).
    """
    if not getattr(args, "profile", False):
        return fn()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        out_dir = getattr(args, "out", None) or "results"
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "profile-%s.pstats" % args.command)
        profiler.dump_stats(path)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(30)
        print("profile written to %s" % path)
    return result


def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.pool import (
        DB_CACHE_DIRNAME,
        FailedPoint,
        SweepPoint,
        configure_db_store,
        run_sweep,
    )
    from repro.experiments.report import retry_policy

    configure_db_store(
        None
        if args.no_db_cache
        else os.path.join(args.out, DB_CACHE_DIRNAME)
    )
    params = _params_from_args(args)
    point = SweepPoint(
        params=params,
        strategy=args.strategy,
        num_retrieves=params.num_queries,
    )
    policy = retry_policy(args)
    report = _run_profiled(
        args, lambda: run_sweep([point], policy=policy)[0]
    )
    if isinstance(report, FailedPoint):
        # Its repr carries the point label, the attempts and the cause.
        sys.stderr.write("quarantined: %r\n" % (report,))
        return 1
    pairs = [
        ("strategy", report.strategy),
        ("parents", params.num_parents),
        ("share factor", params.share_factor),
        ("num_top", params.num_top),
        ("pr_update", params.pr_update),
        ("retrieves", report.num_retrieves),
        ("updates", report.num_updates),
        ("avg I/O per retrieve", round(report.avg_io_per_retrieve, 2)),
        ("retrieve-only I/O", round(report.avg_retrieve_io, 2)),
        ("ParCost per retrieve", round(report.par_cost_per_retrieve, 2)),
        ("ChildCost per retrieve", round(report.child_cost_per_retrieve, 2)),
        ("buffer hit rate", round(report.buffer_hit_rate, 3)),
    ]
    if report.cache_stats:
        pairs.append(("cache hit rate", round(report.cache_stats["hit_rate"], 3)))
    print(format_kv(pairs))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import report

    return _run_profiled(args, lambda: report.run(args))


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.obs.perfcli import perf_flame, perf_trend

    if args.action == "flame":
        return perf_flame(
            args.out,
            pstats_path=args.pstats,
            scale=args.scale,
            strategy=args.strategy,
            flame_out=args.flame_out,
        )
    return perf_trend(args.out, last=args.last, threshold=args.threshold)


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.report import retry_policy
    from repro.fault.chaos import run_chaos

    return run_chaos(
        scale=args.scale,
        fault_seed=args.fault_seed,
        jobs=args.jobs,
        out=args.out,
        faults=args.faults,
        phase=args.phase,
        kill_after=args.kill_after,
        serve_duration=args.serve_duration,
        policy=retry_policy(args),
    )


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments.pool import RetryPolicy
    from repro.serve.run import run_serve

    return run_serve(
        scale=args.scale,
        clients=args.clients,
        duration=args.duration,
        readers=args.readers,
        queue_depth=args.queue_depth,
        publish_interval=args.publish_interval,
        pr_update=args.pr_update,
        strategy=args.strategy,
        deadline_seconds=args.deadline,
        seed=args.seed,
        storm=args.storm,
        verify=not args.no_verify,
        out=args.out,
        ledger=not args.no_ledger,
        json_out=args.json_out,
        policy=RetryPolicy(max_retries=args.max_retries),
    )


def cmd_fuzz(args: argparse.Namespace) -> int:
    # Lazy import: hypothesis is a test-only dependency; every other
    # subcommand must keep working without it.
    try:
        import hypothesis  # noqa: F401
    except ImportError:
        sys.stderr.write(
            "repro fuzz needs hypothesis (pip install 'repro-complex-objects[test]')\n"
        )
        return 2
    from repro.oracle.campaign import run_campaign
    from repro.oracle.machines import MACHINES

    if args.list:
        for name in sorted(MACHINES):
            doc = (MACHINES[name].__doc__ or "").strip().splitlines()[0]
            print("%-10s %s" % (name, doc))
        return 0
    try:
        return run_campaign(
            machines=args.machine or None,
            profile=args.profile,
            seed=args.seed,
            corpus=args.corpus,
            examples=args.examples,
            steps=args.steps,
            budget=args.budget,
        )
    except KeyError as exc:
        sys.stderr.write("%s\n" % exc.args[0])
        return 2


def cmd_dbcache(args: argparse.Namespace) -> int:
    from repro.experiments.pool import DB_CACHE_DIRNAME
    from repro.storage.snapshot import SnapshotStore
    from repro.util.fingerprint import code_fingerprint

    store = SnapshotStore(os.path.join(args.out, DB_CACHE_DIRNAME))
    if args.action == "clear":
        removed = store.clear()
        print("removed %d snapshot(s) from %s" % (removed, store.root))
        return 0
    entries = store.entries()
    if not entries:
        print("no database snapshots under %s" % store.root)
        return 0
    current = code_fingerprint()[:12]
    rows = []
    for name, size, mtime in entries:
        fingerprint = name[len(store.FILE_PREFIX):].split("-", 1)[0]
        rows.append(
            [
                name,
                "%.1f" % (size / 1024.0),
                time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(mtime)),
                "current" if fingerprint == current else "stale",
            ]
        )
    print(format_table(["snapshot", "KiB", "written", "code"], rows,
                       title="Database snapshot store: %s" % store.root))
    print("\ntotal: %d snapshot(s), %.1f KiB"
          % (len(entries), store.bytes_on_disk() / 1024.0))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.explain import explain, measured_explain
    from repro.core.queries import RetrieveQuery
    from repro.workload.driver import database_for

    params = _params_from_args(args)
    db = database_for(params, make_strategy(args.strategy))
    query = RetrieveQuery(0, params.num_top - 1, "ret1")
    if getattr(args, "measure", False):
        print(measured_explain(args.strategy, db, query))
    else:
        print(explain(args.strategy, db, query))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import MetricsRegistry, Tracer, profiled
    from repro.workload.driver import database_for, run_sequence
    from repro.workload.queries import generate_sequence

    params = _params_from_args(args)
    strategy = make_strategy(args.strategy)
    db = database_for(params, strategy)
    sequence = generate_sequence(params, db)
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry, keep_events=True)
    # run_sequence self-validates: it raises TraceValidationError unless
    # the traced totals equal the report's own cost accounting.  The
    # span profiler times the same stage annotations the pages follow.
    with profiled() as prof:
        report = run_sequence(db, strategy, sequence, tracer=tracer)
    summary = report.traced
    stage_ns = prof.stage_ns()

    print(format_kv([
        ("strategy", report.strategy),
        ("operations", report.num_retrieves + report.num_updates),
        ("traced events", summary["events"]),
        ("page reads", summary["reads"]),
        ("page writes", summary["writes"]),
        ("avg I/O per retrieve", round(report.avg_io_per_retrieve, 2)),
        ("event digest", summary["digest"][:16]),
    ]))
    for title, field in (
        ("page kind", "by_kind"),
        ("phase", "by_phase"),
        ("stage", "by_stage"),
        ("relation", "by_relation"),
    ):
        print()
        if field == "by_stage":
            rows = [
                [name, count, "%.1f" % (stage_ns.get(name, 0) / 1e6)]
                for name, count in sorted(summary[field].items())
            ]
            print(format_table([title, "pages", "ms"], rows))
        else:
            rows = [
                [name, count] for name, count in sorted(summary[field].items())
            ]
            print(format_table([title, "pages"], rows))
    measured = summary["measured"]
    print()
    print(format_kv([
        ("ParCost (traced)", measured["par_cost"]),
        ("ChildCost (traced)", measured["child_cost"]),
        ("update cost (traced)", measured["update_cost"]),
        ("self-check", "traced totals equal reported costs"),
    ]))
    if report.buffer_stats:
        stats = report.buffer_stats
        print()
        print(format_kv([
            ("buffer accesses", stats["hits"] + stats["misses"]),
            ("buffer hit rate", round(report.buffer_hit_rate, 3)),
            ("evictions", stats["evictions"]),
            ("dirty evictions", stats["dirty_evictions"]),
        ]))
    if args.out:
        tracer.write_jsonl(args.out)
        print("\nwrote %d events to %s" % (summary["events"], args.out))
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(registry.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote metrics registry to %s" % args.metrics_out)
    return 0


def cmd_footprint(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    db = build_database(params, clustering=True, cache=True)
    rows = sorted(db.storage_footprint().items())
    print(format_table(["relation", "pages"], rows,
                       title="Storage footprint at scale %.2f" % args.scale))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments import report as report_cli
    from repro.experiments.pool import RetryPolicy
    from repro.experiments.report import add_policy_arguments, jobs_arg

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show strategies and the representation matrix")

    run = sub.add_parser("run", help="measure one strategy at one point")
    run.add_argument("--strategy", required=True, choices=sorted(REGISTRY))
    run.add_argument("--scale", type=float, default=0.1)
    run.add_argument("--num-top", dest="num_top", type=int)
    run.add_argument("--pr-update", dest="pr_update", type=float)
    run.add_argument("--use-factor", dest="use_factor", type=int)
    run.add_argument("--overlap-factor", dest="overlap_factor", type=int)
    run.add_argument("--num-queries", dest="num_queries", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--out", default="results",
                     help="results directory (holds the snapshot store)")
    run.add_argument("--no-db-cache", dest="no_db_cache", action="store_true",
                     help="rebuild the database instead of attaching a "
                     "snapshot clone from OUT/.dbcache")
    run.add_argument("--profile", action="store_true",
                     help="run under cProfile; print the top 30 by "
                     "cumulative time and save OUT/profile-run.pstats")
    add_policy_arguments(run)

    report = sub.add_parser("report", help="run every figure/table experiment")
    report_cli.add_arguments(report)
    report.add_argument("--profile", action="store_true",
                        help="run under cProfile; print the top 30 by "
                        "cumulative time and save OUT/profile-report.pstats")

    perf = sub.add_parser(
        "perf",
        help="render the run ledger: wall-time trends, regressions, span "
        "percentiles; 'flame' exports collapsed stacks",
    )
    perf.add_argument("action", nargs="?", choices=("trend", "flame"),
                      default="trend",
                      help="trend (default): run history + per-experiment "
                      "deltas + span rollups; flame: collapsed-stack export")
    perf.add_argument("--out", default="results",
                      help="results directory holding ledger.jsonl")
    perf.add_argument("--last", type=int, default=10,
                      help="report runs to show in the trend table")
    perf.add_argument("--threshold", type=float, default=0.25,
                      help="relative wall-time growth flagged as a "
                      "regression (default 0.25 = +25%%)")
    perf.add_argument("--pstats", default=None,
                      help="flame: convert this --profile .pstats dump "
                      "instead of running a span-profiled measurement")
    perf.add_argument("--scale", type=float, default=0.05,
                      help="flame: workload scale for the span-profiled run")
    perf.add_argument("--strategy", default="BFS", choices=sorted(REGISTRY),
                      help="flame: strategy for the span-profiled run")
    perf.add_argument("--flame-out", dest="flame_out", default=None,
                      help="flame: output path (default OUT/flame-*.txt)")

    chaos = sub.add_parser(
        "chaos",
        help="run a sweep under injected faults and assert the recovered "
        "results are bit-identical to a fault-free run",
    )
    chaos.add_argument("--scale", type=float, default=0.1)
    chaos.add_argument("--fault-seed", dest="fault_seed", type=int, default=0,
                       help="seed of the fault schedule (same seed = same "
                       "injection points)")
    chaos.add_argument("--jobs", type=jobs_arg, default=1,
                       help="worker processes (adds worker-crash faults; "
                       "'auto' = one per core)")
    chaos.add_argument("--out", default="results",
                       help="results directory (chaos writes under OUT/chaos)")
    chaos.add_argument("--faults", default=None,
                       help="override the stock schedule: "
                       "site=rate[xCOUNT][@AFTER],... "
                       "(sites: disk.read, disk.write, disk.torn, "
                       "snapshot.load, snapshot.save, pointcache.load, "
                       "pointcache.save, worker.crash, worker.hang, "
                       "point.poison, sweep.kill)")
    chaos.add_argument("--phase", choices=("all", "kill", "resume", "serve"),
                       default="all",
                       help="all: reference/cold/warm digest comparison; "
                       "kill: SIGKILL the sweep after --kill-after points "
                       "(exits 137); resume: resume it and verify the "
                       "checkpoint; serve: run the MVCC serving layer under "
                       "publish-crash/reader-hang/queue-stall faults and "
                       "verify against the serial oracle")
    chaos.add_argument("--kill-after", dest="kill_after", type=int, default=2,
                       help="completed points before the kill fault fires")
    chaos.add_argument("--serve-duration", dest="serve_duration", type=float,
                       default=3.0,
                       help="seconds the serve phase drives client load")
    add_policy_arguments(chaos)

    serve = sub.add_parser(
        "serve",
        help="serve the retrieve/update mix from MVCC snapshots with N "
        "simulated clients; report throughput, latency percentiles and "
        "publish lag",
    )
    serve.add_argument("--scale", type=float, default=0.1)
    serve.add_argument("--clients", type=int, default=8,
                       help="closed-loop client threads")
    serve.add_argument("--duration", type=float, default=5.0,
                       help="seconds of client load")
    serve.add_argument("--readers", type=int, default=4,
                       help="server reader threads")
    serve.add_argument("--queue-depth", dest="queue_depth", type=int,
                       default=64,
                       help="bounded admission queue capacity")
    serve.add_argument("--publish-interval", dest="publish_interval",
                       type=float, default=0.05,
                       help="seconds between version publishes")
    serve.add_argument("--pr-update", dest="pr_update", type=float,
                       default=0.2,
                       help="per-request update probability")
    serve.add_argument("--strategy", default="BFS", choices=sorted(REGISTRY))
    serve.add_argument("--deadline", type=float, default=2.0,
                       help="per-request deadline in seconds")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--storm", type=int, default=0,
                       help="overload factor: run nominal/storm/recovery "
                       "phases with STORM x clients in the middle")
    serve.add_argument("--max-retries", dest="max_retries", type=int,
                       default=RetryPolicy.max_retries,
                       help="client retries after an overload rejection "
                       "(default %(default)s)")
    serve.add_argument("--no-verify", dest="no_verify", action="store_true",
                       help="skip the serial oracle replay")
    serve.add_argument("--out", default="results",
                       help="results directory (snapshot store + ledger)")
    serve.add_argument("--no-ledger", dest="no_ledger", action="store_true",
                       help="skip appending a kind=serve ledger record")
    serve.add_argument("--json-out", dest="json_out", default=None,
                       help="write the full run summary as JSON")

    footprint = sub.add_parser("footprint", help="show per-relation pages")
    footprint.add_argument("--scale", type=float, default=0.1)

    dbcache = sub.add_parser(
        "dbcache", help="inspect or clear the database snapshot store"
    )
    dbcache.add_argument("action", choices=("ls", "clear"),
                         help="ls: list stored snapshots; clear: delete them")
    dbcache.add_argument("--out", default="results",
                         help="results directory holding .dbcache")

    explain_cmd = sub.add_parser("explain", help="show a strategy's physical plan")
    explain_cmd.add_argument("--strategy", required=True, choices=sorted(REGISTRY))
    explain_cmd.add_argument("--scale", type=float, default=0.1)
    explain_cmd.add_argument("--num-top", dest="num_top", type=int)
    explain_cmd.add_argument(
        "--measure",
        action="store_true",
        help="also run the query traced and print measured page counts "
        "next to the estimates (divergence > 10%% is flagged)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="run generative stateful fuzz campaigns against the storage "
        "engines (hypothesis state machines + differential oracle)",
    )
    fuzz.add_argument("--machine", action="append", default=[],
                      help="machine to fuzz (repeatable; default: all — "
                      "see --list)")
    fuzz.add_argument("--profile", default="deep",
                      choices=("quick", "standard", "state_machine", "deep"),
                      help="settings tier (default deep)")
    fuzz.add_argument("--seed", type=int, default=None,
                      help="pin hypothesis randomness for deterministic "
                      "campaign replay")
    fuzz.add_argument("--examples", type=int, default=None,
                      help="override the profile's max_examples")
    fuzz.add_argument("--steps", type=int, default=None,
                      help="override the profile's stateful_step_count")
    fuzz.add_argument("--budget", type=float, default=None,
                      help="coarse time box in seconds: start no new "
                      "machine after it is exhausted")
    fuzz.add_argument("--corpus", default=None,
                      help="failure-corpus directory (default: the "
                      "committed tests/stateful/corpus)")
    fuzz.add_argument("--list", action="store_true",
                      help="list available machines and exit")

    trace = sub.add_parser(
        "trace", help="run one strategy traced; print the I/O breakdown"
    )
    trace.add_argument("--strategy", required=True, choices=sorted(REGISTRY))
    trace.add_argument("--scale", type=float, default=0.05)
    trace.add_argument("--num-top", dest="num_top", type=int)
    trace.add_argument("--pr-update", dest="pr_update", type=float)
    trace.add_argument("--use-factor", dest="use_factor", type=int)
    trace.add_argument("--overlap-factor", dest="overlap_factor", type=int)
    trace.add_argument("--num-queries", dest="num_queries", type=int)
    trace.add_argument("--seed", type=int)
    trace.add_argument("--out", default=None,
                       help="write the raw event stream as JSON lines")
    trace.add_argument("--metrics-out", dest="metrics_out", default=None,
                       help="write the metrics registry as JSON")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import SweepInterrupted

    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "explain": cmd_explain,
        "run": cmd_run,
        "report": cmd_report,
        "footprint": cmd_footprint,
        "trace": cmd_trace,
        "dbcache": cmd_dbcache,
        "chaos": cmd_chaos,
        "perf": cmd_perf,
        "serve": cmd_serve,
        "fuzz": cmd_fuzz,
    }
    try:
        return handlers[args.command](args)
    except SweepInterrupted as exc:
        # Ctrl-C mid-sweep: workers are already terminated and every
        # completed point is checkpointed in the point cache.
        sys.stderr.write(
            "\ninterrupted: %d/%d sweep point(s) completed and "
            "checkpointed — rerun the same command to resume.\n"
            % (exc.completed, exc.total)
        )
        return 130
    except KeyboardInterrupt:
        # Ctrl-C outside a sweep (build, table rendering, ...).
        sys.stderr.write("\ninterrupted.\n")
        return 130


if __name__ == "__main__":  # pragma: no cover - module entry
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piping into `head` closes stdout early; that is not an error.
        sys.exit(0)
