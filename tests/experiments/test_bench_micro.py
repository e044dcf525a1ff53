"""``repro bench``: micros that cross-check two routes to one answer."""

from repro.experiments.bench import run_benchmarks


def test_attach_micros_clone_the_same_database():
    payload = run_benchmarks(
        repeat=1, warmup=0, only=["snapshot_attach", "arena_attach"]
    )
    results = payload["benchmarks"]
    assert set(results) == {"snapshot_attach", "arena_attach"}
    for result in results.values():
        assert result["ns_per_op"] > 0
    assert results["snapshot_attach"]["pages"] == results["arena_attach"]["pages"] > 0


def test_join_inner_times_both_entries_of_the_walk():
    # bench_join_inner itself raises unless the page-batched and the
    # flat-list entry match the same number of records.
    result = run_benchmarks(repeat=1, warmup=0, only=["join_inner"])["benchmarks"][
        "join_inner"
    ]
    assert result["matches"] == result["probes"]
    assert result["ns_per_op"] > 0 and result["flat_ns_per_op"] > 0
