"""Query-processing strategies: correctness and cross-strategy agreement.

The defining invariant: every strategy answers the same logical query, so
(as multisets) all strategies must return identical attribute values —
except BFSNODUP, which returns the values of *distinct* subobjects.
"""

import random
from collections import Counter

import pytest

from repro.core.measure import CostMeter
from repro.core.queries import RetrieveQuery, UpdateQuery
from repro.core.strategies import REGISTRY, make_strategy
from repro.errors import QueryError
from repro.workload.generator import build_database

ALL_EQUIVALENT = ("DFS", "BFS", "DFSCACHE", "DFSCLUST", "SMART")


def expected_values(db, query):
    """Reference answer computed directly from the logical structure."""
    out = []
    attr_index = db.child_schema.field_index(query.attr)
    for parent in db.parents_in_range(query.lo, query.hi):
        for oid in db.children_of(parent):
            out.append(db.fetch_child(oid.rel - 1, oid.key)[attr_index])
    return out


class ReferenceModel:
    """Dict-of-lists model of a database's logical content, read off the
    relations by full scans (no strategy and no point probe involved)."""

    def __init__(self, db):
        self.schema = db.child_schema
        self.parents = {
            db.parent_key_of(parent): [
                (oid.rel - 1, oid.key) for oid in db.children_of(parent)
            ]
            for parent in db.parent_rel.scan()
        }
        self.children = {
            (rel_index, child[0]): list(child)
            for rel_index, rel in enumerate(db.child_rels)
            for child in rel.scan()
        }

    def retrieve(self, query, distinct=False):
        refs = [
            ref
            for key in range(query.lo, query.hi + 1)
            for ref in self.parents.get(key, ())
        ]
        attr_index = self.schema.field_index(query.attr)
        if distinct:
            refs = set(refs)
        return Counter(self.children[ref][attr_index] for ref in refs)

    def update(self, update):
        for ref in update.refs:
            self.children[ref][self.schema.field_index("ret1")] = update.value


def random_operations(model, seed, steps=200):
    """A seeded interleaving of retrieves, updates and cache resets."""
    rng = random.Random(seed)
    refs = sorted(model.children)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.6:
            lo = rng.randrange(len(model.parents))
            attr = rng.choice(("ret1", "ret2", "ret3"))
            yield RetrieveQuery(lo, lo + rng.randrange(16), attr)
        elif roll < 0.9:
            targets = tuple(rng.sample(refs, rng.randint(1, 3)))
            yield UpdateQuery(targets, rng.randrange(10**6))
        else:
            yield "reset-cache"


class TestRegistry:
    def test_all_six_registered(self):
        assert set(REGISTRY) >= {
            "DFS",
            "BFS",
            "BFSNODUP",
            "DFSCACHE",
            "DFSCLUST",
            "SMART",
        }

    def test_make_strategy_unknown(self):
        with pytest.raises(QueryError):
            make_strategy("NOPE")

    def test_flags(self):
        assert not make_strategy("BFS").uses_cache
        assert make_strategy("DFSCACHE").uses_cache
        assert make_strategy("DFSCLUST").uses_clustering
        assert make_strategy("SMART").uses_cache


class TestPrerequisites:
    def test_cache_strategy_needs_cache(self, tiny_db_plain):
        with pytest.raises(QueryError):
            make_strategy("DFSCACHE").retrieve(
                tiny_db_plain, RetrieveQuery(0, 5, "ret1")
            )

    def test_cluster_strategy_needs_cluster(self, tiny_db_plain):
        with pytest.raises(QueryError):
            make_strategy("DFSCLUST").retrieve(
                tiny_db_plain, RetrieveQuery(0, 5, "ret1")
            )


class TestEquivalence:
    @pytest.mark.parametrize("name", ALL_EQUIVALENT)
    @pytest.mark.parametrize("lo,hi", [(0, 0), (7, 26), (0, 199)])
    def test_matches_reference(self, tiny_db, name, lo, hi):
        query = RetrieveQuery(lo, hi, "ret2")
        reference = Counter(expected_values(tiny_db, query))
        tiny_db.reset_cache()
        got = make_strategy(name).retrieve(tiny_db, query)
        assert Counter(got) == reference

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_under_interleaving(self, tiny_params, name, seed):
        """Every registered strategy, on a database with just what it
        needs, against the same seeded mix of retrieves, updates and
        cache resets: each retrieve equals the model's answer."""
        strategy = make_strategy(name)
        db = build_database(
            tiny_params.replace(seed=seed),
            clustering=strategy.uses_clustering,
            cache=strategy.uses_cache,
            procedural=name.startswith("PROC-"),
        )
        if name == "DFSCACHE-INSIDE":
            db.enable_inside_cache(tiny_params.size_cache, 500)
        model = ReferenceModel(db)
        for step, op in enumerate(random_operations(model, seed)):
            if isinstance(op, RetrieveQuery):
                got = Counter(strategy.retrieve(db, op))
                assert got == model.retrieve(op, distinct=name == "BFSNODUP"), (step, op)
            elif isinstance(op, UpdateQuery):
                strategy.update(db, op)
                model.update(op)
            else:
                db.reset_cache()

    def test_bfsnodup_returns_distinct_subobjects(self, tiny_db):
        query = RetrieveQuery(0, 199, "ret1")
        attr_index = tiny_db.child_schema.field_index("ret1")
        distinct = set()
        for parent in tiny_db.parents_in_range(0, 199):
            for oid in tiny_db.children_of(parent):
                distinct.add((oid.rel, oid.key))
        expected = Counter(
            tiny_db.fetch_child(rel - 1, key)[attr_index] for rel, key in distinct
        )
        got = make_strategy("BFSNODUP").retrieve(tiny_db, query)
        assert Counter(got) == expected

    def test_smart_both_arms_agree(self, tiny_db):
        query = RetrieveQuery(3, 42, "ret3")
        small_arm = make_strategy("SMART", threshold=1000)
        big_arm = make_strategy("SMART", threshold=1)
        tiny_db.reset_cache()
        a = Counter(small_arm.retrieve(tiny_db, query))
        tiny_db.reset_cache()
        b = Counter(big_arm.retrieve(tiny_db, query))
        assert a == b

    def test_dfscache_consistent_after_warmup(self, tiny_db):
        query = RetrieveQuery(0, 49, "ret1")
        strategy = make_strategy("DFSCACHE")
        tiny_db.reset_cache()
        cold = Counter(strategy.retrieve(tiny_db, query))
        warm = Counter(strategy.retrieve(tiny_db, query))
        assert cold == warm

    def test_results_after_update(self, tiny_db):
        """All strategies see an update, including through the cache."""
        query = RetrieveQuery(0, 19, "ret1")
        dfscache = make_strategy("DFSCACHE")
        tiny_db.reset_cache()
        dfscache.retrieve(tiny_db, query)  # populate cache

        parent = tiny_db.fetch_parent(5)
        rel_index, keys = tiny_db.unit_ref_of(parent)
        update = UpdateQuery(((rel_index, keys[0]),), value=123456789)
        dfscache.update(tiny_db, update)
        make_strategy("DFSCLUST").update(tiny_db, update)

        for name in ALL_EQUIVALENT:
            got = make_strategy(name).retrieve(tiny_db, query)
            assert 123456789 in got, name


class TestCostBehaviour:
    def test_meter_phases_populated(self, tiny_db_plain):
        meter = CostMeter(tiny_db_plain.disk)
        tiny_db_plain.start_measurement()
        make_strategy("BFS").retrieve(
            tiny_db_plain, RetrieveQuery(0, 49, "ret1"), meter
        )
        assert meter.par_cost > 0
        assert meter.child_cost > 0

    def test_dfs_costs_more_than_bfs_at_high_num_top(self, tiny_params):
        # ChildRel must exceed the buffer pool or DFS's random fetches
        # all hit memory and the comparison degenerates.
        params = tiny_params.replace(num_parents=500, use_factor=1, buffer_pages=12)
        db = build_database(params)
        query = RetrieveQuery(0, 499, "ret1")
        costs = {}
        for name in ("DFS", "BFS"):
            db.start_measurement()
            meter = CostMeter(db.disk)
            make_strategy(name).retrieve(db, query, meter)
            costs[name] = meter.total_cost
        assert costs["BFS"] < costs["DFS"]

    def test_cache_hits_reduce_cost(self, tiny_db):
        db = tiny_db
        query = RetrieveQuery(0, 19, "ret1")
        strategy = make_strategy("DFSCACHE")
        db.reset_cache()
        db.start_measurement()
        meter_cold = CostMeter(db.disk)
        strategy.retrieve(db, query, meter_cold)
        db.start_measurement()
        meter_warm = CostMeter(db.disk)
        strategy.retrieve(db, query, meter_warm)
        assert meter_warm.total_cost < meter_cold.total_cost

    def test_update_meters_update_phase(self, tiny_db_plain):
        meter = CostMeter(tiny_db_plain.disk)
        make_strategy("BFS").update(
            tiny_db_plain, UpdateQuery(((0, 1), (0, 2)), 5), meter
        )
        assert meter.update_cost > 0
        assert meter.par_cost == 0


class TestInsideCacheStrategy:
    def test_runs_and_agrees(self, tiny_params):
        db = build_database(tiny_params)
        db.enable_inside_cache(tiny_params.size_cache, 500)
        query = RetrieveQuery(0, 29, "ret1")
        got = make_strategy("DFSCACHE-INSIDE").retrieve(db, query)
        assert Counter(got) == Counter(expected_values(db, query))

    def test_requires_inside_cache(self, tiny_db_plain):
        with pytest.raises(QueryError):
            make_strategy("DFSCACHE-INSIDE").retrieve(
                tiny_db_plain, RetrieveQuery(0, 5, "ret1")
            )
