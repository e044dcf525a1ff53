"""End-to-end determinism: same seed, same measured I/O — the property
that makes every number in EXPERIMENTS.md reproducible bit-for-bit."""

from repro.core.strategies import make_strategy
from repro.workload.driver import run_sequence
from repro.workload.generator import build_database
from repro.workload.params import WorkloadParams
from repro.workload.queries import generate_sequence


def params(seed=11):
    return WorkloadParams(
        num_parents=300,
        use_factor=5,
        num_top=10,
        num_queries=15,
        pr_update=0.3,
        size_cache=30,
        buffer_pages=12,
        seed=seed,
    )


def measure(point, strategy_name):
    strategy = make_strategy(strategy_name)
    db = build_database(
        point, clustering=strategy.uses_clustering, cache=strategy.uses_cache
    )
    sequence = generate_sequence(point, db)
    return run_sequence(db, strategy, sequence)


class TestEndToEndDeterminism:
    def test_identical_runs_identical_io(self):
        for name in ("BFS", "DFSCACHE", "DFSCLUST"):
            a = measure(params(), name)
            b = measure(params(), name)
            assert a.total_io == b.total_io, name
            assert a.par_cost == b.par_cost, name
            assert a.child_cost == b.child_cost, name

    def test_seed_changes_io(self):
        a = measure(params(seed=1), "BFS")
        b = measure(params(seed=2), "BFS")
        assert a.total_io != b.total_io
