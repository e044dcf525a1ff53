"""``serve_mix``: the only multi-threaded path.

Two closed-loop client threads owned by the benchmark (the paper's
single-user driver, replicated: each waits for its reply before sending
the next request) replay pre-generated retrieves and updates against a
``SnapshotServer`` pinned at two readers.  Latency is timed by the
client from ``submit`` to ``done``, with the exact sample list.  The
consistency oracle replays the published history afterwards, outside
the timed window.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import harness
import probes
import tracing
from harness import Metrics, median, percentile, timed

from repro.core.strategies.base import make_strategy
from repro.errors import Overloaded
from repro.experiments.pool import RetryPolicy
from repro.experiments.runner import DatabaseCache
from repro.serve.server import ServeRequest, SnapshotServer, replay_oracle, result_digest
from repro.storage.snapshot import Snapshot, SnapshotStore
from repro.util.deadline import Deadline
from repro.util.rng import derive_rng
from repro.workload.driver import run_sequence
from repro.workload.generator import build_database
from repro.workload.params import WorkloadParams
from repro.workload.queries import random_retrieve, random_update

SCALE = 0.2
SMOKE_SCALE = 0.05
STRATEGY = "BFS"
READERS = 2
CLIENTS = 2
QUEUE_DEPTH = 64
PUBLISH_INTERVAL = 0.05
PR_UPDATE = 0.2
DEADLINE_SECONDS = 2.0
OPS_PER_CLIENT = 4000

#: The oracle re-executes at most this many acknowledged retrieves
#: (every k-th, all epochs and all updates), to bound its run time.
ORACLE_RETRIEVES = 1500

#: Operations of client 0 replayed serially for the simulated-I/O ledger.
LEDGER_OPS = 300


class Setup:
    """Store, base snapshot, started server, pre-generated operations."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.root = harness.fresh_tmp("serve")
        self.params = WorkloadParams().scaled(SMOKE_SCALE if smoke else SCALE)
        self.params = self.params.replace(seed=seed)
        self.store = SnapshotStore(os.path.join(self.root, ".dbcache"))
        self.base = DatabaseCache(store=self.store).snapshot_for(self.params)
        probe = self.base.attach()
        child_counts = [rel.num_records for rel in probe.child_rels]
        self.server = self.start_server()
        self.ops: List[List[Tuple[str, Any]]] = []
        for client in range(CLIENTS):
            rng = derive_rng(seed, stream=1000 + client)
            ops = []
            for _ in range(OPS_PER_CLIENT):
                if rng.random() < PR_UPDATE:
                    ops.append(("update", random_update(self.params, child_counts, rng)))
                else:
                    ops.append(("retrieve", random_retrieve(self.params, rng)))
            self.ops.append(ops)

    def start_server(self) -> SnapshotServer:
        server = SnapshotServer(
            self.base, strategy=STRATEGY, readers=READERS,
            queue_depth=QUEUE_DEPTH, publish_interval=PUBLISH_INTERVAL,
        )
        server.start()
        return server

    def close(self) -> None:
        self.store.clear()
        harness.remove_tmp(self.root)


def setup_only(seed: int, smoke: bool) -> None:
    setup = Setup(seed, smoke)
    setup.server.stop()
    setup.close()


class Client(threading.Thread):
    """One closed-loop client: send, wait for the outcome, send the next."""

    def __init__(self, server: SnapshotServer, ops: List[Tuple[str, Any]],
                 seqs: Any, seed: int, index: int, seconds: float) -> None:
        super().__init__(name="bench-client-%d" % index)
        self.server = server
        self.ops = ops
        self.seqs = seqs
        self.rng = derive_rng(seed, stream=2000 + index)
        self.seconds = seconds
        self.policy = RetryPolicy()
        #: (kind, status, latency ms) per finished operation.
        self.done: List[Tuple[str, str, float]] = []
        #: perf_counter() at each acknowledged operation.
        self.acked_at: List[float] = []
        self.submit_us: List[float] = []

    def run(self) -> None:
        clock = time.perf_counter_ns
        end = time.perf_counter() + self.seconds
        for kind, op in itertools.cycle(self.ops):
            if time.perf_counter() >= end:
                return
            attempts = 0
            t0 = clock()
            while True:
                request = ServeRequest(
                    next(self.seqs), kind, op,
                    deadline=Deadline.after(DEADLINE_SECONDS),
                )
                t_submit = clock()
                try:
                    self.server.submit(request)
                except Overloaded:
                    attempts += 1
                    if attempts > self.policy.max_retries:
                        self.done.append((kind, "shed", (clock() - t0) / 1e6))
                        break
                    time.sleep(
                        self.policy.backoff_seconds * 2 ** (attempts - 1)
                        * (0.5 + self.rng.random())
                    )
                    continue
                self.submit_us.append((clock() - t_submit) / 1e3)
                if request.done.wait(timeout=DEADLINE_SECONDS + 30.0):
                    status = request.status
                else:
                    status = "lost"
                self.done.append((kind, status, (clock() - t0) / 1e6))
                if status == "ok":
                    self.acked_at.append(time.perf_counter())
                break


class Phase:
    """One closed-loop phase against one server, stopped and verified."""

    def __init__(self, setup: Setup, server: SnapshotServer, seed: int,
                 seconds: float, recorder: Optional[tracing.Recorder] = None) -> None:
        seqs = itertools.count()
        self.clients = [
            Client(server, setup.ops[i], seqs, seed, i, seconds) for i in range(CLIENTS)
        ]
        self.server = server
        try:
            t0 = time.perf_counter()
            if recorder is not None:
                with tracing.Instrumentation(recorder):
                    self._drive()
            else:
                self._drive()
            self.wall = time.perf_counter() - t0
        finally:
            self.stuck = server.stop()
        self.done = [entry for client in self.clients for entry in client.done]
        self.retrieve_ms = [
            ms for kind, status, ms in self.done if kind == "retrieve" and status == "ok"
        ]
        self.update_ms = [
            ms for kind, status, ms in self.done if kind == "update" and status == "ok"
        ]
        self.acked = len(self.retrieve_ms) + len(self.update_ms)
        # Acknowledgements per whole second of the phase: the median of
        # these is the throughput, as rounds are for the engine workloads
        # (a slow second on a shared box does not move it).
        self.slice_rps = [0.0] * int(self.wall)
        for client in self.clients:
            for stamp in client.acked_at:
                index = int(stamp - t0)
                if index < len(self.slice_rps):
                    self.slice_rps[index] += 1.0
        stride = max(1, len(server.acked_retrieves) // ORACLE_RETRIEVES)
        self.mismatches = len(replay_oracle(
            setup.base, STRATEGY, server.epoch_log,
            server.acked_retrieves[::stride], server.acked_updates,
        ))

    def _drive(self) -> None:
        for client in self.clients:
            client.start()
        for client in self.clients:
            client.join()

    def problems(self) -> List[str]:
        found = []
        bad = [status for _kind, status, _ms in self.done if status != "ok"]
        for status in sorted(set(bad)):
            found.append("%d request(s) ended %s" % (bad.count(status), status))
        if self.stuck:
            found.append("threads still alive after stop: %s" % ", ".join(self.stuck))
        if self.mismatches:
            found.append("oracle found %d mismatch(es)" % self.mismatches)
        if not self.retrieve_ms or not self.update_ms:
            found.append("no acknowledged retrieve or no acknowledged update")
        return found


def _ledger(setup: Setup) -> Dict[str, int]:
    """Simulated I/O of client 0's first operations, run serially."""
    sequence = [op for _kind, op in setup.ops[0][:LEDGER_OPS]]
    report = run_sequence(setup.base.attach(), make_strategy(STRATEGY), sequence)
    return {"total_io": report.total_io, "retrieves": report.num_retrieves,
            "updates": report.num_updates}


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        expected: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    setup = Setup(seed, smoke)
    metrics = Metrics()
    try:
        # End-to-end numbers always come from an untraced phase; the
        # traced phase gets a server of its own.
        phase = Phase(setup, setup.server, seed, seconds / 2.0 if trace else seconds)
        problems = phase.problems()
        ledger = _ledger(setup)
        if expected is not None and ledger != expected:
            problems.append("pinned ledger %r != measured %r" % (expected, ledger))
        attempted = len(phase.done)
        failed = sum(1 for _kind, status, _ms in phase.done if status != "ok")
        if phase.retrieve_ms and phase.update_ms:
            retrieve_ms, update_ms = phase.retrieve_ms, phase.update_ms
            put = metrics.put
            metrics.put_median("ops_per_s", phase.slice_rps or [phase.acked / phase.wall], "1/s")
            metrics.put_latencies(retrieve_ms)
            put("update_ack_ms_p50", percentile(update_ms, 50), "ms", n=len(update_ms))
            put("update_ack_ms_p95", percentile(update_ms, 95), "ms", n=len(update_ms))
            put("sim_io_per_retrieve", ledger["total_io"] / ledger["retrieves"], "pages")
            put("failed_share", failed / attempted, "ratio")
            if trace:
                recorder = tracing.Recorder()
                traced = Phase(setup, setup.start_server(), seed, seconds / 3.0, recorder)
                problems.extend("traced phase: " + p for p in traced.problems())
                _per_layer(setup, phase, traced, recorder, metrics)
    finally:
        setup.close()
    metrics.put("peak_rss_mb", harness.peak_rss_mb(), "MiB")
    return {
        "metrics": metrics,
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "problems": problems,
        "pins": ledger,
    }


# ----------------------------------------------------------------------
# per-layer numbers
# ----------------------------------------------------------------------
def _quantile(registry: Any, name: str, q: float, **tags: Any) -> float:
    histogram = registry.histogram(name, **tags)
    return histogram.quantile(q) if histogram is not None and histogram.count else 0.0


def _per_layer(setup: Setup, phase: Phase, traced: Phase,
               recorder: tracing.Recorder, metrics: Metrics) -> None:
    put = metrics.put
    server = phase.server
    registry = server.metrics
    admission = server.queue.stats()
    chain = server.chain.counters()
    retrieve_ms = phase.retrieve_ms
    submit_us = [us for client in phase.clients for us in client.submit_us]

    put("trace.overhead_ratio",
        metrics.get("ops_per_s") / median(traced.slice_rps or [traced.acked / traced.wall]),
        "ratio")
    recorder.write_jsonl(harness.trace_path("serve_mix"))

    put("serve.admission.submit_us_p50", percentile(submit_us, 50), "us", n=len(submit_us))
    put("serve.admission.shed_total", admission["shed_total"], "count")
    put("serve.admission.max_depth_seen", admission["max_depth_seen"], "count")
    put("serve.server.service_ms_p50",
        _quantile(registry, "serve.service_ms", 50, kind="retrieve"), "ms")
    put("serve.server.service_ms_p99",
        _quantile(registry, "serve.service_ms", 99, kind="retrieve"), "ms")
    service = registry.histogram("serve.service_ms", kind="retrieve")
    service_mean = service.mean if service is not None else 0.0
    put("serve.server.nonservice_ms_mean",
        sum(retrieve_ms) / len(retrieve_ms) - service_mean, "ms")
    put("serve.server.publish_lag_ms_p50",
        _quantile(registry, "serve.publish_lag_ms", 50), "ms")
    put("serve.server.publish_lag_ms_p95",
        _quantile(registry, "serve.publish_lag_ms", 95), "ms")
    batch = registry.histogram("serve.batch_size")
    put("serve.server.batch_size_mean", batch.mean if batch is not None else 0.0, "count")
    put("serve.server.oracle_mismatches", phase.mismatches + traced.mismatches, "count")
    put("serve.version.publishes_per_s", chain["published"] / phase.wall, "1/s")
    put("serve.version.max_live", chain["max_live"], "count")
    put("serve.client.update_ack_ms_p50", metrics.get("update_ack_ms_p50"), "ms",
        n=len(phase.update_ms))
    put("serve.client.update_ack_ms_p95", metrics.get("update_ack_ms_p95"), "ms",
        n=len(phase.update_ms))

    # --- probes on an in-process build of the workload's own database -----
    params = setup.params
    db, build_s = timed(build_database, params)
    put("workload.generator.build_s", build_s, "s")
    put("workload.generator.pages_built", db.disk.total_pages(), "count")
    fresh = Snapshot.freeze(db)
    chain_probe = SnapshotServer(fresh, strategy=STRATEGY, readers=READERS).chain
    attach_ms = []
    for _ in range(200):
        t0 = time.perf_counter()
        lease = chain_probe.acquire()
        lease.attach()
        attach_ms.append((time.perf_counter() - t0) * 1e3)
        lease.release()
    put("serve.version.clone_attach_ms", median(attach_ms), "ms", n=len(attach_ms))

    strategy = make_strategy(STRATEGY)
    clone = fresh.attach()
    values = [strategy.retrieve(clone, op) for kind, op in setup.ops[0][:200]
              if kind == "retrieve"]
    put("serve.server.digest_us",
        harness.ns_per_call(result_digest, values) / 1e3, "us", n=len(values))

    freezes = []
    for op in [op for kind, op in setup.ops[0] if kind == "update"][:50]:
        writer = fresh.attach()
        strategy.update(writer, op)
        _frozen, seconds = timed(Snapshot.freeze, writer)
        freezes.append(seconds * 1e3)
    put("serve.server.freeze_ms", median(freezes), "ms", n=len(freezes))

    probed: Dict[str, float] = {}
    probed.update(probes.snapshot_probes(fresh, repeats=50))
    probed.update(probes.buffer_probes(fresh))
    probed.update(probes.arena_probes(params))
    metrics.put_declared(probed)

    # --- the budget: shares of the traced threads' span time ---------------
    by_name = tracing.self_time_by_name(recorder.spans())
    busy = sum(row["self_ns"] for row in by_name.values())
    tracing.put_budget(metrics, by_name, float(busy or 1))
