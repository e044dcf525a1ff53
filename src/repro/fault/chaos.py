"""The ``repro chaos`` harness: sweeps under faults, proven bit-identical.

The whole fault-injection subsystem makes one promise: *recovery never
changes a measured result*.  This module turns that promise into an
executable check.  A chaos run measures a small representative sweep
three times —

1. **reference** — fault-free, serial, no caches: the ground truth;
2. **cold** — under a seeded fault schedule (transient disk errors, a
   torn page, a snapshot-store write failure, worker crashes under
   ``--jobs``) with fresh point/database caches, exercising retries,
   pool restarts and graceful degradation;
3. **warm** — replayed from the caches the cold pass wrote, under
   *load*-path faults (corrupted point-cache and snapshot entries),
   exercising checksum verification, quarantine and deterministic
   recomputation;

and asserts all three digests — a SHA-256 over the canonical JSON of
every report, including each point's traced event-stream digest — are
identical.  Any divergence is a recovery bug, reported with a non-zero
exit status.

Crash safety gets its own two phases, driven by the CLI (and CI):
``--phase kill`` starts a cached sweep under a ``sweep.kill`` fault
that SIGKILLs the process after ``--kill-after`` completed points (the
command dies with exit 137, as a real crash would); ``--phase resume``
reruns the same sweep over the same cache directory and asserts that
at least those completed points were answered from the checkpoint and
that the final results match a fresh fault-free computation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.pool import (
    DB_CACHE_DIRNAME,
    POINT_CACHE_DIRNAME,
    RECOVERY_COUNTERS,
    FailedPoint,
    PointCache,
    RetryPolicy,
    SweepPoint,
    configure_db_store,
    point_label,
    run_sweep,
)
from repro.fault import plan as _fault
from repro.util.fmt import format_kv
from repro.util.stats import add_counts
from repro.workload.driver import CostReport
from repro.workload.params import WorkloadParams

#: Everything a chaos run writes lives under ``OUT/chaos/``.
CHAOS_DIRNAME = "chaos"
KILL_MARKER = "chaos-kill.json"


def chaos_points(scale: float, retrieves: int = 6) -> List[SweepPoint]:
    """A small, representative sweep grid for chaos runs.

    Two database shapes times three strategies, all traced — so the
    bit-identical claim covers not just the final cost numbers but the
    exact page-level event stream of every measured query.
    """
    base = WorkloadParams().scaled(scale)
    return [
        SweepPoint(
            params=base.replace(num_top=num_top),
            strategy=strategy,
            num_retrieves=retrieves,
            traced=True,
        )
        for num_top in (2, 10)
        for strategy in ("DFS", "BFS", "DFSCACHE")
    ]


def result_digest(results: Sequence[Any]) -> str:
    """SHA-256 over the canonical JSON of a sweep's results.

    Two runs agree on this digest iff every report field — costs,
    buffer counters, traced summaries and their event digests — is
    bit-identical.  A quarantined point hashes as its label, so a
    degraded sweep can never collide with a clean one.
    """
    rows: List[Any] = []
    for result in results:
        if isinstance(result, CostReport):
            rows.append(dataclasses.asdict(result))
        elif isinstance(result, FailedPoint):
            rows.append({"failed": point_label(result.point)})
        else:
            rows.append(result)
    payload = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def _quarantined(results: Sequence[Any]) -> List[str]:
    return [
        point_label(result.point)
        for result in results
        if isinstance(result, FailedPoint)
    ]


def _pass_summary(
    results: Sequence[Any],
    pre_injections: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Digest + fault/recovery counters for the sweep that just ran.

    Injection counts come from the sweep-log entry (which merges the
    parent plan's fires with every pool worker's) plus ``pre_injections``
    — parent-plan fires that happened before :func:`run_sweep` started,
    e.g. point-cache entries corrupted while the cache loaded.
    """
    from repro.experiments.pool import SWEEP_LOG

    faults = dict(SWEEP_LOG[-1]["faults"])
    injections = add_counts(dict(pre_injections or {}), faults["injections"])
    faults["injections"] = {
        site: count for site, count in injections.items() if count
    }
    return {
        "digest": result_digest(results),
        "quarantined": _quarantined(results),
        "faults": faults,
    }


def run_chaos(
    scale: float = 0.1,
    fault_seed: int = 0,
    jobs: int = 1,
    out: str = "results",
    faults: Optional[str] = None,
    phase: str = "all",
    kill_after: int = 2,
    retrieves: int = 6,
    serve_duration: float = 3.0,
    policy: Optional[RetryPolicy] = None,
) -> int:
    """Run one chaos phase; return a process exit status.

    ``phase="all"`` is the self-contained reference/cold/warm
    comparison; ``"kill"`` and ``"resume"`` are the two halves of the
    crash-safety check (``kill`` does not return — it SIGKILLs itself);
    ``"serve"`` runs the MVCC serving layer under injected mid-publish
    crashes, reader hangs and queue stalls, asserting every acknowledged
    request's digest matches the serial oracle.  ``faults`` overrides
    the cold pass's stock schedule with a parsed
    ``site=rate[xCOUNT][@AFTER],...`` plan.  Every sweep runs under
    ``policy`` (default ``RetryPolicy()``).
    """
    workdir = os.path.join(out, CHAOS_DIRNAME)
    db_root = os.path.join(workdir, DB_CACHE_DIRNAME)
    cache_root = os.path.join(workdir, POINT_CACHE_DIRNAME)

    if phase == "serve":
        return _run_serve_phase(scale, fault_seed, workdir, serve_duration)

    points = chaos_points(scale, retrieves=retrieves)

    if phase == "kill":
        return _run_kill_phase(
            points, workdir, db_root, cache_root, fault_seed, kill_after, policy
        )
    if phase == "resume":
        return _run_resume_phase(points, workdir, db_root, cache_root, policy)

    # ------------------------------------------------------------------
    # phase "all": reference vs cold-under-faults vs warm-under-faults
    # ------------------------------------------------------------------
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)

    # The reference pass runs in the same execution mode as the faulted
    # passes (snapshot-backed, serial, uncached) with faults off — the
    # only variable between the digests is the fault schedule.
    _fault.clear()
    configure_db_store(os.path.join(workdir, DB_CACHE_DIRNAME + "-ref"))
    reference = run_sweep(points, jobs=1, policy=policy)
    configure_db_store(None)
    summaries: Dict[str, Dict[str, Any]] = {
        "reference": _pass_summary(reference)
    }

    if faults:
        cold_specs = _fault.parse_faults(faults)
    else:
        cold_specs = _fault.default_chaos_specs(jobs)
    try:
        # Cold pass: fresh caches, failure-path faults, full fan-out.
        cold_plan = _fault.FaultPlan(cold_specs, seed=fault_seed)
        _fault.install(cold_plan)
        configure_db_store(db_root)
        cold_cache = PointCache(cache_root)
        pre = dict(cold_plan.injections)
        cold = run_sweep(points, jobs=jobs, cache=cold_cache, policy=policy)
        summaries["cold"] = _pass_summary(cold, pre)

        # Warm pass: replay from the cold pass's caches with corrupted
        # load paths.  Re-pointing the db store resets its in-memory
        # LRU, so snapshot loads really hit the (corruptible) files.
        warm_plan = _fault.FaultPlan(_fault.default_warm_specs(), seed=fault_seed)
        _fault.install(warm_plan)
        configure_db_store(db_root)
        warm_cache = PointCache(cache_root)  # load-corruption fires here
        pre = dict(warm_plan.injections)
        warm = run_sweep(points, jobs=1, cache=warm_cache, policy=policy)
        summaries["warm"] = _pass_summary(warm, pre)
        summaries["warm"]["cache"] = warm_cache.stats_snapshot()
    finally:
        _fault.clear()
        configure_db_store(None)

    with open(os.path.join(workdir, "CHAOS.json"), "w") as handle:
        json.dump(summaries, handle, indent=2, sort_keys=True)
        handle.write("\n")

    reference_digest = summaries["reference"]["digest"]
    failures: List[str] = []
    for name in ("cold", "warm"):
        if summaries[name]["digest"] != reference_digest:
            failures.append(
                "%s pass digest %s != reference %s"
                % (name, summaries[name]["digest"][:16], reference_digest[:16])
            )
        if summaries[name]["quarantined"]:
            failures.append(
                "%s pass quarantined %s (every injected fault "
                "should have been recovered)"
                % (name, ", ".join(summaries[name]["quarantined"]))
            )

    print(format_kv([
        ("points", len(points)),
        ("scale", scale),
        ("jobs", jobs),
        ("fault seed", fault_seed),
        ("cold pass", _fmt_activity(summaries["cold"]["faults"])),
        ("warm pass", _fmt_activity(summaries["warm"]["faults"])),
        ("reference digest", reference_digest[:16]),
        ("cold digest", summaries["cold"]["digest"][:16]),
        ("warm digest", summaries["warm"]["digest"][:16]),
    ]))
    for name in ("cold", "warm"):
        if not _fault_activity(summaries[name]["faults"]):
            failures.append(
                "the %s pass saw no fault activity at all — the schedule "
                "never fired, so nothing was actually tested" % name
            )
    if failures:
        for failure in failures:
            print("chaos: FAIL: %s" % failure)
        return 1
    print("chaos: OK — faulted runs are bit-identical to the fault-free run")
    return 0


def _fault_activity(faults: Dict[str, Any]) -> int:
    """Total observable fault events of one pass.

    Counts injections the plan recorded plus parent-side recovery
    evidence.  The latter matters because some faults erase their own
    records: a ``worker.crash`` fire dies with the worker, so the pool
    restart it forced is the only trace it leaves.
    """
    return sum(faults.get("injections", {}).values()) + sum(
        faults.get(name, 0) for name in RECOVERY_COUNTERS
    )


def _fmt_activity(faults: Dict[str, Any]) -> str:
    parts = [
        "%s=%d" % (site, count)
        for site, count in sorted(faults.get("injections", {}).items())
        if count
    ]
    parts += [
        "%s=%d" % (name, faults[name])
        for name in RECOVERY_COUNTERS
        if faults.get(name)
    ]
    return ", ".join(parts) if parts else "no fault activity"


def _run_serve_phase(
    scale: float, fault_seed: int, workdir: str, duration: float
) -> int:
    """Serve under injected faults; prove no acknowledged request lost.

    The schedule covers all three serving sites: two mid-publish
    crashes (the writer's attempt is discarded before anything was
    acknowledged and rebuilt), one reader hang (the hung reader pins an
    old version across later publishes) and one queue stall (the
    admission queue backs up).  The run passes iff every fault actually
    fired, the serial oracle verifies every acknowledged digest, no
    request was lost and every thread shut down cleanly.
    """
    from repro.serve.run import run_serve

    os.makedirs(workdir, exist_ok=True)
    plan = _fault.FaultPlan(
        [
            _fault.FaultSpec("serve.publish_crash", count=2, after=3),
            _fault.FaultSpec("serve.reader_hang", count=1, after=20),
            _fault.FaultSpec("serve.queue_stall", count=1, after=60),
        ],
        seed=fault_seed,
        hang_seconds=0.3,
    )
    _fault.install(plan)
    json_path = os.path.join(workdir, "CHAOS_serve.json")
    try:
        status = run_serve(
            scale=scale,
            clients=4,
            duration=duration,
            readers=2,
            queue_depth=32,
            publish_interval=0.02,
            pr_update=0.3,
            deadline_seconds=10.0,
            storm=0,
            verify=True,
            out=workdir,
            ledger=False,
            json_out=json_path,
        )
    finally:
        _fault.clear()
    injections = plan.counters()["injections"]
    failures: List[str] = []
    if status != 0:
        failures.append(
            "faulted serve run failed (oracle mismatch, lost request, "
            "or stuck thread) — see %s" % json_path
        )
    for site in ("serve.publish_crash", "serve.reader_hang", "serve.queue_stall"):
        if not injections.get(site):
            failures.append(
                "fault site %s never fired — raise --serve-duration so the "
                "schedule is actually exercised" % site
            )
    print(format_kv([
        ("scale", scale),
        ("fault seed", fault_seed),
        ("serve faults", _fmt_activity({"injections": injections})),
    ]))
    if failures:
        for failure in failures:
            print("chaos: FAIL: %s" % failure)
        return 1
    print(
        "chaos: OK — faulted serving lost no acknowledged request; every "
        "digest matches the serial oracle"
    )
    return 0


def _run_kill_phase(
    points: List[SweepPoint],
    workdir: str,
    db_root: str,
    cache_root: str,
    fault_seed: int,
    kill_after: int,
    policy: Optional[RetryPolicy],
) -> int:
    """Start a cached sweep that SIGKILLs itself after ``kill_after`` points.

    On the expected path this function never returns: the process dies
    with exit 137 at a point boundary, leaving ``kill_after`` completed
    points checkpointed in the cache and a marker file for the resume
    phase to verify against.
    """
    if not 0 < kill_after < len(points):
        print(
            "chaos: --kill-after must be in 1..%d (got %d)"
            % (len(points) - 1, kill_after)
        )
        return 2
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, KILL_MARKER), "w") as handle:
        json.dump({"kill_after": kill_after, "points": len(points)}, handle)
        handle.write("\n")
    _fault.install(
        _fault.FaultPlan(
            [_fault.FaultSpec("sweep.kill", after=kill_after)], seed=fault_seed
        )
    )
    try:
        configure_db_store(db_root)
        run_sweep(points, jobs=1, cache=PointCache(cache_root), policy=policy)
    finally:
        _fault.clear()
        configure_db_store(None)
    print(
        "chaos: FAIL: the sweep finished — the sweep.kill fault never fired"
    )
    return 1


def _run_resume_phase(
    points: List[SweepPoint],
    workdir: str,
    db_root: str,
    cache_root: str,
    policy: Optional[RetryPolicy],
) -> int:
    """Resume the killed sweep and prove the checkpoint did its job."""
    marker_path = os.path.join(workdir, KILL_MARKER)
    try:
        with open(marker_path) as handle:
            marker = json.load(handle)
    except (OSError, ValueError):
        print(
            "chaos: FAIL: no kill marker at %s — run --phase kill first"
            % marker_path
        )
        return 2
    failures: List[str] = []
    if marker.get("points") != len(points):
        failures.append(
            "the kill phase swept %r points but this command describes %d "
            "(pass the same --scale/--retrieves flags to both phases)"
            % (marker.get("points"), len(points))
        )
    _fault.clear()
    configure_db_store(db_root)
    cache = PointCache(cache_root)
    try:
        resumed = run_sweep(points, jobs=1, cache=cache, policy=policy)
    finally:
        configure_db_store(None)
    kill_after = int(marker.get("kill_after", 0))
    if cache.hits < kill_after:
        failures.append(
            "only %d point(s) were answered from the checkpoint; the killed "
            "run completed %d — completed work was lost"
            % (cache.hits, kill_after)
        )
    # Ground truth, computed fresh (own snapshot store, no point cache,
    # no faults) in the same execution mode as the resumed run.
    ref_root = os.path.join(workdir, DB_CACHE_DIRNAME + "-ref")
    shutil.rmtree(ref_root, ignore_errors=True)
    configure_db_store(ref_root)
    try:
        reference = run_sweep(points, jobs=1, policy=policy)
    finally:
        configure_db_store(None)
    resumed_digest = result_digest(resumed)
    reference_digest = result_digest(reference)
    if resumed_digest != reference_digest:
        failures.append(
            "resumed digest %s != fresh digest %s"
            % (resumed_digest[:16], reference_digest[:16])
        )
    print(format_kv([
        ("points", len(points)),
        ("killed after", kill_after),
        ("resumed from checkpoint", cache.hits),
        ("recomputed", cache.misses),
        ("resumed digest", resumed_digest[:16]),
        ("fresh digest", reference_digest[:16]),
    ]))
    if failures:
        for failure in failures:
            print("chaos: FAIL: %s" % failure)
        return 1
    os.unlink(marker_path)
    print(
        "chaos: OK — the killed sweep resumed from its checkpoint, "
        "bit-identical to a fresh run"
    )
    return 0
