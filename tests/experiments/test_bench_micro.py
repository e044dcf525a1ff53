"""``repro bench``: the attach microbenchmarks run and agree on the database."""

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
