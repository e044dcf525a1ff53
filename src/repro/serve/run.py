"""``repro serve``: run the MVCC serving layer and report its envelope.

One run wires the pieces together: the base snapshot comes from the
same persistent snapshot store the sweeps use (so a prior ``repro
report`` run warms serving too), a :class:`SnapshotServer` publishes
versions on top of it, and N closed-loop clients replay the paper's
retrieve/update mix against it for a fixed duration.

``--storm K`` splits the run into three phases — nominal load, a
``K``-times client storm, and recovery at nominal load after one
publish-interval breather — to demonstrate the overload contract:
during the storm the bounded queue sheds load with typed rejections
(never deadlocking), and recovery-phase latency returns to the nominal
envelope.

With ``verify`` on (the default), the run ends with a serial oracle
replay (:func:`~repro.serve.server.replay_oracle`): every acknowledged
retrieve's digest must match a serial re-execution of the published
history.  The summary is printed, ledgered (``kind="serve"``) and
optionally dumped as JSON for CI assertions.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from repro.experiments.pool import DB_CACHE_DIRNAME, RetryPolicy
from repro.experiments.runner import DatabaseCache
from repro.obs import ledger as _ledger
from repro.obs.registry import MetricsRegistry
from repro.serve.clients import run_clients
from repro.serve.server import SnapshotServer, replay_oracle
from repro.storage.snapshot import SnapshotStore
from repro.util.fmt import format_kv
from repro.workload.params import WorkloadParams


def _percentiles(registry: MetricsRegistry, name: str, **tags: Any) -> Dict[str, float]:
    histogram = registry.histogram(name, **tags)
    if histogram is None or histogram.count == 0:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        "count": histogram.count,
        "p50": round(histogram.quantile(50), 3),
        "p95": round(histogram.quantile(95), 3),
        "p99": round(histogram.quantile(99), 3),
    }


def _phase_counts(registry: MetricsRegistry) -> Dict[str, int]:
    return {
        "issued": registry.sum_counters("serve.issued"),
        "acknowledged": registry.sum_counters("serve.done", status="ok"),
        "deadline": registry.sum_counters("serve.done", status="deadline"),
        "errors": registry.sum_counters("serve.done", status="error")
        + registry.sum_counters("serve.done", status="lost"),
        "shed": registry.sum_counters("serve.shed"),
        "retries": registry.sum_counters("serve.retries"),
        "gave_up": registry.sum_counters("serve.gave_up"),
    }


def run_serve(
    scale: float = 0.1,
    clients: int = 8,
    duration: float = 5.0,
    readers: int = 4,
    queue_depth: int = 64,
    publish_interval: float = 0.05,
    pr_update: float = 0.2,
    strategy: str = "BFS",
    deadline_seconds: float = 2.0,
    seed: int = 42,
    storm: int = 0,
    verify: bool = True,
    out: str = "results",
    ledger: bool = True,
    json_out: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    quiet: bool = False,
) -> int:
    """One serving-layer run; returns a process exit code.

    Non-zero means the robustness contract was violated: the oracle
    found a digest mismatch, a request was lost, or a server thread
    failed to stop (deadlock).  Load shedding during a storm is the
    contract *working* and never fails the run.
    """
    params = WorkloadParams().scaled(scale)
    store = SnapshotStore(os.path.join(out, DB_CACHE_DIRNAME))
    cache = DatabaseCache(store=store)
    base = cache.snapshot_for(params)
    probe = base.attach()
    child_counts = [rel.num_records for rel in probe.child_rels]
    del probe

    server = SnapshotServer(
        base,
        strategy=strategy,
        readers=readers,
        queue_depth=queue_depth,
        publish_interval=publish_interval,
    )
    server.start()
    t0 = time.monotonic_ns()

    phases: List[Dict[str, Any]] = []

    def run_phase(name: str, n_clients: int, seconds: float, stream: int) -> None:
        registry = run_clients(
            server,
            params,
            child_counts,
            clients=n_clients,
            duration=seconds,
            pr_update=pr_update,
            deadline_seconds=deadline_seconds,
            seed=seed,
            policy=policy,
            stream_base=stream,
        )
        phase = {
            "phase": name,
            "clients": n_clients,
            "seconds": seconds,
            "requests": _phase_counts(registry),
            "latency_ms": {
                "retrieve": _percentiles(registry, "serve.latency_ms", kind="retrieve"),
                "update": _percentiles(registry, "serve.latency_ms", kind="update"),
            },
        }
        phases.append(phase)
        server.metrics.merge(registry)

    if storm and storm > 1:
        slice_seconds = max(duration / 3.0, 0.2)
        run_phase("nominal", clients, slice_seconds, stream=0)
        run_phase("storm", clients * storm, slice_seconds, stream=10_000)
        # The contract: back to nominal latency within one publish
        # interval of the storm ending.
        time.sleep(publish_interval)
        run_phase("recovery", clients, slice_seconds, stream=20_000)
    else:
        run_phase("nominal", clients, duration, stream=0)

    stuck = server.stop()
    wall_seconds = (time.monotonic_ns() - t0) / 1e9

    totals = {
        key: sum(phase["requests"][key] for phase in phases)
        for key in phases[0]["requests"]
    }
    metrics = server.metrics
    latency = {
        "retrieve": _percentiles(metrics, "serve.latency_ms", kind="retrieve"),
        "update": _percentiles(metrics, "serve.latency_ms", kind="update"),
    }
    # Server-side budget rows: time inside a retrieve, and the clone
    # attach each thread pays when the published epoch moves on.
    service_ms = _percentiles(metrics, "serve.service_ms", kind="retrieve")
    attach_ms = {
        role: _percentiles(metrics, "serve.attach_ms", role=role)
        for role in ("reader", "writer")
    }
    chain = server.chain.counters()
    publish = dict(chain)
    publish["crashes"] = metrics.sum_counters("serve.publish.crashes")
    publish["lag_ms"] = _percentiles(metrics, "serve.publish_lag_ms")
    admission = server.queue.stats()

    verified: Optional[bool] = None
    mismatches: List[Dict[str, Any]] = []
    if verify:
        mismatches = replay_oracle(
            base,
            strategy,
            server.epoch_log,
            server.acked_retrieves,
            server.acked_updates,
        )
        verified = not mismatches

    recovered: Optional[bool] = None
    if storm and storm > 1:
        nominal_p95 = phases[0]["latency_ms"]["retrieve"]["p95"]
        recovery_p95 = phases[-1]["latency_ms"]["retrieve"]["p95"]
        # Generous bound: "recovered" means back in the nominal envelope,
        # not bit-identical latency (wall-clock noise is real).
        recovered = recovery_p95 <= max(nominal_p95 * 3.0, nominal_p95 + 50.0)

    summary: Dict[str, Any] = {
        "scale": scale,
        "clients": clients,
        "readers": readers,
        "queue_depth": queue_depth,
        "publish_interval": publish_interval,
        "pr_update": pr_update,
        "strategy": strategy,
        "duration": duration,
        "seed": seed,
        "storm": storm,
        "wall_seconds": round(wall_seconds, 3),
        "requests": totals,
        "throughput_rps": round(totals["acknowledged"] / wall_seconds, 1)
        if wall_seconds > 0
        else 0.0,
        "latency_ms": latency,
        "service_ms": service_ms,
        "attach_ms": attach_ms,
        "publish": publish,
        "admission": admission,
        "phases": phases,
        "verified": verified,
        "mismatches": mismatches[:10],
        "recovered": recovered,
        "stuck_threads": stuck,
    }

    if not quiet:
        pairs = [
            ("scale", scale),
            ("clients", clients + (clients * storm if storm else 0)),
            ("readers", readers),
            ("strategy", strategy),
            ("issued", totals["issued"]),
            ("acknowledged", totals["acknowledged"]),
            ("shed", totals["shed"]),
            ("retries", totals["retries"]),
            ("deadline", totals["deadline"]),
            ("throughput rps", summary["throughput_rps"]),
            ("retrieve p50/p95/p99 ms", "%.1f / %.1f / %.1f" % (
                latency["retrieve"]["p50"],
                latency["retrieve"]["p95"],
                latency["retrieve"]["p99"],
            )),
            ("update p50/p95/p99 ms", "%.1f / %.1f / %.1f" % (
                latency["update"]["p50"],
                latency["update"]["p95"],
                latency["update"]["p99"],
            )),
            ("service p50/p95 ms", "%.2f / %.2f" % (
                service_ms["p50"], service_ms["p95"],
            )),
            ("attach p50 ms reader/writer", "%.2f / %.2f" % (
                attach_ms["reader"]["p50"], attach_ms["writer"]["p50"],
            )),
            ("publishes", publish["published"]),
            ("publish crashes", publish["crashes"]),
            ("publish lag p95 ms", publish["lag_ms"]["p95"]),
            ("live/max versions", "%d / %d" % (publish["live"], publish["max_live"])),
            ("admission tier", admission["tier"]),
        ]
        if verified is not None:
            pairs.append(("oracle verified", "yes" if verified else "NO"))
        if recovered is not None:
            pairs.append(("storm recovered", "yes" if recovered else "NO"))
        if stuck:
            pairs.append(("STUCK THREADS", ", ".join(stuck)))
        print(format_kv(pairs, title="serve: MVCC snapshot serving"))

    if ledger:
        try:
            record = _ledger.serve_record(
                config={
                    "scale": scale,
                    "clients": clients,
                    "readers": readers,
                    "queue_depth": queue_depth,
                    "publish_interval": publish_interval,
                    "pr_update": pr_update,
                    "strategy": strategy,
                    "duration": duration,
                    "storm": storm,
                    "throughput_rps": summary["throughput_rps"],
                },
                requests=totals,
                latency_ms=latency,
                publish=publish,
                admission={
                    "shed": admission["shed"],
                    "tier_changes": admission["tier_changes"],
                    "max_depth_seen": admission["max_depth_seen"],
                },
                verified=verified,
                fingerprint=store.fingerprint[:12],
            )
            _ledger.RunLedger(
                os.path.join(out, _ledger.LEDGER_FILENAME)
            ).append(record)
        except OSError:
            pass  # telemetry must never sink a run

    if json_out:
        directory = os.path.dirname(json_out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(json_out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)

    failed = bool(stuck) or verified is False or totals["errors"] > 0
    return 1 if failed else 0
