"""Microbenchmarks of the engine's hot paths (``repro bench``).

The sweep-level telemetry (``BENCH_sweeps.json``, written by ``repro
report --bench-out``) measures whole experiments; this module measures
the four paths those experiments spend their time in, in isolation:

* ``codec_roundtrip`` — slotted-page byte encode + decode of a full page
  of ParentRel-shaped records through the schema's precompiled
  :class:`~repro.storage.record.RecordCodec`;
* ``heap_scan``       — page-batched full scan of a heap file
  (:meth:`~repro.storage.heap.HeapFile.scan_pages`);
* ``btree_probe``     — random B-tree lookups (descent + leaf collect),
  the inner loop of every DFS-family strategy;
* ``join_inner``      — the merge join's coordinated forward walk over a
  sorted temporary of probe keys, the inner loop of BFS.

Timing is nanosecond-resolution (:func:`time.perf_counter_ns`) with
``--warmup`` unmeasured leading passes: every benchmark reports
``ns_per_op`` (min-of-``repeat``, the stable headline), plus
``p50_ns_per_op``/``p95_ns_per_op`` over the measured passes — the p95
is what the CI gate compares against its committed baseline
(``benchmarks/BENCH_micro_baseline.json``), so a hot path that turns
*erratic* fails the gate even when its best pass stays fast.  Legacy
seconds/throughput fields are kept for older tooling.  Results land in
``BENCH_micro.json`` and are appended to the run ledger
(``results/ledger.jsonl``) as ``kind="micro"`` records, so ``repro
perf`` shows the per-op trajectory next to the sweep wall times.

The timed loops run real buffer-pool traffic, so the numbers move when
the accounting hot path regresses, not just when the codecs do.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import random
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.oid import Oid
from repro.query.join import join_sorted_temp, merge_probe_join
from repro.query.temp import make_temp
from repro.storage.catalog import Catalog
from repro.storage.record import CharField, IntField, OidListField, Schema
from repro.util.fingerprint import code_fingerprint
from repro.util.stats import percentile

#: ParentRel-shaped schema (Section 4 of the paper: ~200-byte tuples).
PARENT_LIKE_SCHEMA = Schema(
    [
        IntField("oid"),
        IntField("ret1"),
        IntField("ret2"),
        IntField("ret3"),
        CharField("dummy", 160),
        OidListField("children", 25),
    ]
)

#: ChildRel-shaped schema (~100-byte tuples).
CHILD_LIKE_SCHEMA = Schema(
    [
        IntField("oid"),
        IntField("ret1"),
        IntField("ret2"),
        IntField("ret3"),
        CharField("dummy", 80),
    ]
)


#: Schema of a sorted temporary of join keys.
KEY_SCHEMA = Schema([IntField("oid")])


def _parent_record(key: int, rng: random.Random) -> Tuple[Any, ...]:
    children = [Oid(1, rng.randrange(1 << 20)) for _ in range(5)]
    return (
        key,
        rng.randrange(1 << 30),
        rng.randrange(1 << 30),
        rng.randrange(1 << 30),
        "x" * rng.randrange(20, 120),
        children,
    )


def _child_record(key: int, rng: random.Random) -> Tuple[Any, ...]:
    return (
        key,
        rng.randrange(1 << 30),
        rng.randrange(1 << 30),
        rng.randrange(1 << 30),
        "y" * rng.randrange(10, 60),
    )


def _time_ns(
    fn: Callable[[], Any], repeat: int, warmup: int = 1
) -> Tuple[List[int], Any]:
    """Per-pass ``perf_counter_ns`` timings of ``fn``.

    Runs ``warmup`` unmeasured leading passes (page decode caches,
    branch predictors and the allocator all settle), then ``repeat``
    measured passes.  Returns every measured pass time plus the last
    return value — min-of-k and percentiles both come from the list.
    """
    value = None
    for _ in range(max(0, warmup)):
        value = fn()
    times: List[int] = []
    for _ in range(max(1, repeat)):
        start = perf_counter_ns()
        value = fn()
        times.append(perf_counter_ns() - start)
    return times, value


def _op_fields(times_ns: List[int], ops: int) -> Dict[str, Any]:
    """The canonical per-op summary of one benchmark's pass times."""
    per_op = sorted(t / ops for t in times_ns)
    return {
        "ns_per_op": round(per_op[0], 1),
        "p50_ns_per_op": round(percentile(per_op, 50), 1),
        "p95_ns_per_op": round(percentile(per_op, 95), 1),
    }


# ----------------------------------------------------------------------
# individual benchmarks
# ----------------------------------------------------------------------
def bench_codec_roundtrip(
    repeat: int, pages: int = 200, warmup: int = 1
) -> Dict[str, Any]:
    """Encode + decode ``pages`` page images of ParentRel-shaped records."""
    codec = PARENT_LIKE_SCHEMA.codec
    rng = random.Random(7)
    page_records = [
        [_parent_record(page * 16 + i, rng) for i in range(10)]
        for page in range(pages)
    ]
    encoded = [codec.encode(records) for records in page_records]

    def encode_all() -> int:
        total = 0
        for records in page_records:
            total += len(codec.encode(records))
        return total

    def decode_all() -> int:
        total = 0
        for buf in encoded:
            total += len(codec.decode(buf))
        return total

    encode_times, byte_total = _time_ns(encode_all, repeat, warmup)
    decode_times, _ = _time_ns(decode_all, repeat, warmup)
    decoded = codec.decode(encoded[0])
    if decoded != page_records[0]:
        raise AssertionError("codec round-trip mismatch in benchmark data")
    encode_s = min(encode_times) / 1e9
    decode_s = min(decode_times) / 1e9
    # One "op" is a full page round-trip: encode pass i + decode pass i.
    roundtrip = [e + d for e, d in zip(encode_times, decode_times)]
    result = {
        "pages": pages,
        "records": sum(len(r) for r in page_records),
        "encode_seconds": round(encode_s, 6),
        "decode_seconds": round(decode_s, 6),
        "encode_pages_per_second": round(pages / encode_s, 1),
        "decode_pages_per_second": round(pages / decode_s, 1),
        "bytes": byte_total,
    }
    result.update(_op_fields(roundtrip, pages))
    return result


def bench_heap_scan(
    repeat: int, records: int = 20000, warmup: int = 1
) -> Dict[str, Any]:
    """Page-batched scan of a heap of ChildRel-shaped records."""
    catalog = Catalog(buffer_pages=4096)
    heap = catalog.create_heap("bench-heap", CHILD_LIKE_SCHEMA)
    rng = random.Random(11)
    heap.insert_many(_child_record(i, rng) for i in range(records))

    def scan_all() -> int:
        count = 0
        for batch in heap.scan_pages():
            count += len(batch)
        return count

    times, scanned = _time_ns(scan_all, repeat, warmup)
    if scanned != records:
        raise AssertionError("heap scan lost records: %d != %d" % (scanned, records))
    seconds = min(times) / 1e9
    result = {
        "records": records,
        "pages": heap.num_pages,
        "seconds": round(seconds, 6),
        "records_per_second": round(records / seconds, 1),
    }
    result.update(_op_fields(times, records))
    return result


def bench_btree_probe(
    repeat: int, records: int = 20000, probes: int = 20000, warmup: int = 1
) -> Dict[str, Any]:
    """Random lookups against a bulk-loaded B-tree (the DFS inner loop)."""
    catalog = Catalog(buffer_pages=4096)
    tree = catalog.create_btree("bench-btree", CHILD_LIKE_SCHEMA, "oid")
    rng = random.Random(13)
    tree.bulk_load([_child_record(i, rng) for i in range(records)])
    keys = [rng.randrange(records) for _ in range(probes)]

    def probe_all() -> int:
        lookup_one = tree.lookup_one
        count = 0
        for key in keys:
            lookup_one(key)
            count += 1
        return count

    times, count = _time_ns(probe_all, repeat, warmup)
    seconds = min(times) / 1e9
    result = {
        "records": records,
        "probes": count,
        "height": tree.height,
        "seconds": round(seconds, 6),
        "probes_per_second": round(count / seconds, 1),
    }
    result.update(_op_fields(times, probes))
    return result


def bench_join_inner(
    repeat: int, records: int = 20000, probes: int = 40000, warmup: int = 1
) -> Dict[str, Any]:
    """Merge join of a sorted temporary of keys with a B-tree (the BFS inner loop).

    One op is one probe key through :func:`join_sorted_temp`, the
    page-batched entry the strategies use; each pass consumes one of the
    temporaries built beforehand.  ``flat_ns_per_op`` is the same keys
    through :func:`merge_probe_join` as one flat list.
    """
    catalog = Catalog(buffer_pages=4096)
    tree = catalog.create_btree("bench-join", CHILD_LIKE_SCHEMA, "oid")
    rng = random.Random(17)
    tree.bulk_load([_child_record(i, rng) for i in range(records)])
    keys = sorted(rng.randrange(records) for _ in range(probes))
    project = operator.itemgetter(1)
    key_records = [(key,) for key in keys]
    temps = [
        make_temp(catalog.pool, KEY_SCHEMA, key_records, prefix="bench-keys")
        for _ in range(max(0, warmup) + max(1, repeat))
    ]

    def join_temp() -> int:
        return len(join_sorted_temp(temps.pop(), tree, project))

    def join_flat() -> int:
        return sum(1 for _ in merge_probe_join(keys, tree, project))

    times, matched = _time_ns(join_temp, repeat, warmup)
    flat_times, flat_matched = _time_ns(join_flat, repeat, warmup)
    if matched == 0 or matched != flat_matched:
        raise AssertionError(
            "merge join benchmark matched %d by page, %d flat" % (matched, flat_matched)
        )
    seconds = min(times) / 1e9
    result = {
        "records": records,
        "probes": probes,
        "matches": matched,
        "seconds": round(seconds, 6),
        "probes_per_second": round(probes / seconds, 1),
        "flat_ns_per_op": round(min(flat_times) / probes, 1),
    }
    result.update(_op_fields(times, probes))
    return result


def _bench_snapshot(scale: float = 0.05):
    """A frozen workload database for the attach benchmarks."""
    from repro.storage.snapshot import Snapshot
    from repro.workload.generator import build_database
    from repro.workload.params import WorkloadParams

    params = WorkloadParams().scaled(scale)
    return Snapshot.freeze(build_database(params, cache=True))


def bench_arena_attach(
    repeat: int, warmup: int = 1, scale: float = 0.05
) -> Dict[str, Any]:
    """Clone materialization from a registry-warm mmap arena.

    One op is what a pool worker pays per sweep point on the arena
    path: a structural clone of the template unpickled at load, over
    the shared zero-copy page stubs.  The one-time mmap + parse +
    metadata unpickle (paid once per process, not per attach) is
    reported separately as ``load_ns``.
    """
    import tempfile

    from repro.storage import arena as _arena

    snapshot = _bench_snapshot(scale)
    blob = _arena.build_arena(snapshot._db)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "bench.arena")
        with open(path, "wb") as handle:
            handle.write(blob)
        start = perf_counter_ns()
        state = _arena._load_state(path)
        load_ns = perf_counter_ns() - start
        times, clone = _time_ns(state.attach, repeat, warmup)
        if clone is None or clone.disk is None:
            raise AssertionError("arena attach produced no database")
    result = {
        "pages": state.pages,
        "arena_bytes": len(blob),
        "load_ns": load_ns,
        "seconds": round(min(times) / 1e9, 6),
    }
    result.update(_op_fields(times, 1))
    return result


def bench_snapshot_attach(
    repeat: int, warmup: int = 1, scale: float = 0.05
) -> Dict[str, Any]:
    """Structural clone of an in-memory frozen template.

    One op is what ``repro serve`` pays per reader (and per writer
    batch) each time the published epoch moves on:
    ``Snapshot.attach`` of a database frozen in this process.
    """
    snapshot = _bench_snapshot(scale)
    times, clone = _time_ns(snapshot.attach, repeat, warmup)
    if clone is None or clone.disk is None:
        raise AssertionError("snapshot attach produced no database")
    result = {
        "pages": clone.disk.total_pages(),
        "seconds": round(min(times) / 1e9, 6),
    }
    result.update(_op_fields(times, 1))
    return result


BENCHMARKS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "codec_roundtrip": bench_codec_roundtrip,
    "heap_scan": bench_heap_scan,
    "btree_probe": bench_btree_probe,
    "join_inner": bench_join_inner,
    "arena_attach": bench_arena_attach,
    "snapshot_attach": bench_snapshot_attach,
}


def run_benchmarks(
    repeat: int = 5,
    only: Optional[List[str]] = None,
    warmup: int = 1,
) -> Dict[str, Any]:
    """Run the selected microbenchmarks; return the BENCH_micro payload."""
    names = only or sorted(BENCHMARKS)
    results: Dict[str, Any] = {}
    for name in names:
        if name not in BENCHMARKS:
            raise ValueError(
                "unknown benchmark %r (choose from %s)"
                % (name, ", ".join(sorted(BENCHMARKS)))
            )
        results[name] = BENCHMARKS[name](repeat, warmup=warmup)
    return {
        "kind": "repro-bench-micro",
        "code_fingerprint": code_fingerprint()[:16],
        "python": platform.python_version(),
        "repeat": repeat,
        "warmup": warmup,
        "benchmarks": results,
    }


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``bench`` flags, for ``repro bench`` and :func:`main` alike."""
    parser.add_argument("--repeat", type=int, default=5,
                        help="measured timing passes per benchmark "
                        "(ns_per_op is min-of-k; p50/p95 come from all k)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="unmeasured leading passes per benchmark")
    parser.add_argument("--only", nargs="*", choices=sorted(BENCHMARKS),
                        metavar="ONLY", help="run only the named benchmarks")
    parser.add_argument("--out", default="results",
                        help="directory for BENCH_micro.json and the run "
                        "ledger ('' disables)")
    parser.add_argument("--no-ledger", dest="no_ledger", action="store_true",
                        help="skip appending a kind=micro record to "
                        "OUT/ledger.jsonl")


def run(args: argparse.Namespace) -> int:
    """Run the benchmarks an :func:`add_arguments` namespace describes."""
    payload = run_benchmarks(
        repeat=args.repeat, only=args.only, warmup=args.warmup
    )
    for name, result in payload["benchmarks"].items():
        parts = ", ".join(
            "%s=%s" % (key, value)
            for key, value in sorted(result.items())
            if key.endswith("_per_second") or key.endswith("ns_per_op")
            or key == "seconds"
        )
        print("%-16s %s" % (name, parts))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "BENCH_micro.json")
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % path)
        if not args.no_ledger:
            from repro.obs import ledger as _ledger

            record = _ledger.micro_record(
                payload["benchmarks"], payload["code_fingerprint"]
            )
            _ledger.RunLedger(
                os.path.join(args.out, _ledger.LEDGER_FILENAME)
            ).append(record)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench", description="storage/query hot-path microbenchmarks"
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
