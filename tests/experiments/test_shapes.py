"""Shape assertions: each experiment, run at a small scale, must exhibit
the qualitative structure the paper reports.  These are the reproduction's
regression tests — if a storage or strategy change flips a conclusion,
they fail.
"""

import pytest

from repro.experiments import ablations, deep, fig3, fig4, fig5, fig7, matrix, opt, sec62, smart

SCALE = 0.08  # 800 parents: fast but structured


@pytest.fixture(scope="module")
def fig3_result():
    return fig3.run(scale=SCALE)


@pytest.fixture(scope="module")
def fig5_result():
    return fig5.run(scale=0.15, num_retrieves=6)


class TestFig3Shapes:
    def test_dfs_loses_at_high_num_top(self, fig3_result):
        last = fig3_result.rows[-1]  # largest NumTop
        dfs, bfs = last[1], last[2]
        assert dfs > 3 * bfs

    def test_bfs_slightly_worse_at_num_top_one(self, fig3_result):
        first = fig3_result.rows[0]
        assert first[0] == 1
        dfs, bfs = first[1], first[2]
        assert bfs > dfs  # BFS pays the temporary
        assert bfs < 4 * dfs  # ... but only slightly (same order)

    def test_crossover_exists_near_fifty(self, fig3_result):
        crossover = fig3.crossover_num_top(fig3_result)
        assert crossover is not None
        # Paper: "DFS is a loser when NumTop exceeds 50 or so" — accept a
        # generous band around it at reduced scale.
        assert crossover <= 100

    def test_bfsnodup_close_to_bfs(self, fig3_result):
        for row in fig3_result.rows:
            bfs, nodup = row[2], row[3]
            assert nodup == pytest.approx(bfs, rel=0.30, abs=4)


class TestFig5Shapes:
    def test_clust_parcost_rises_as_share_factor_falls(self, fig5_result):
        par = fig5_result.column("clust_ParCost")
        assert par[0] == max(par)  # ShareFactor=1 has the costliest scan
        assert par[0] > 1.5 * par[-1]

    def test_clust_childcost_zero_at_share_factor_one(self, fig5_result):
        child = fig5_result.column("clust_ChildCost")
        assert child[0] == 0
        assert all(c > 0 for c in child[1:])

    def test_bfs_parcost_flat(self, fig5_result):
        par = fig5_result.column("bfs_ParCost")
        assert max(par) - min(par) <= 0.3 * max(par)

    def test_bfs_childcost_falls_with_share_factor(self, fig5_result):
        child = fig5_result.column("bfs_ChildCost")
        assert child[0] > 2 * child[-1]

    def test_crossover_exists(self, fig5_result):
        assert fig5.crossover_share_factor(fig5_result) is not None

    def test_clustering_wins_outright_at_share_factor_one(self, fig5_result):
        row = fig5_result.rows[0]
        assert row[0] == 1
        assert row[3] < row[6]  # clust total < bfs total


class TestFig7Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run(scale=0.15, num_retrieves=6)

    def test_overlap_five_curve_above_overlap_one(self, result):
        worse = 0
        for row in result.rows:
            if row[2] > row[1]:
                worse += 1
        assert worse >= len(result.rows) - 1  # allow one noisy point

    def test_crossover_moves_left_with_overlap(self, result):
        def first_ratio_above_one(col):
            for row in result.rows:
                if row[col] > 1.0:
                    return row[0]
            return None

        low_overlap = first_ratio_above_one(1)
        high_overlap = first_ratio_above_one(2)
        assert high_overlap is not None
        if low_overlap is not None:
            assert high_overlap <= low_overlap

    def test_clustering_degrades_with_num_top(self, result):
        ratios = result.column("overlap=5,use=1")
        assert ratios[-1] > ratios[0]


class TestFig4Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4.run(
            scale=SCALE,
            coarse=True,
            num_top_fractions=(0.0025, 0.025, 0.5),
            pr_updates=(0.0, 0.9),
            use_factors=(1, 5, 25),
        )

    def test_dfsclust_owns_share_factor_one(self, result):
        for row in fig4.winner_at(result, share_factor=1):
            assert row[-1] == "DFSCLUST", row

    def test_bfs_wins_high_num_top_high_sharing(self, result):
        num_tops = sorted({row[1] for row in result.rows})
        for row in fig4.winner_at(result, share_factor=25, num_top=num_tops[-1]):
            assert row[-1] == "BFS", row

    def test_caching_only_competitive_at_low_update_rates(self, result):
        # Wherever DFSCACHE wins, Pr(UPDATE) is low.
        for row in result.rows:
            if row[-1] == "DFSCACHE":
                assert row[2] <= 0.5, row

    def test_all_three_regions_nonempty_enough(self, result):
        counts = fig4.region_counts(result)
        assert counts["BFS"] > 0
        assert counts["DFSCLUST"] > 0


class TestSec62Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        # Needs enough data that a 20-way split of ChildRel does not
        # collapse each piece into the buffer pool (a scale artifact that
        # makes DFS *improve* with NumChildRel).
        return sec62.run(scale=0.2)

    def test_dfs_family_flat(self, result):
        assert sec62.max_relative_spread(result, "DFS") < 0.35
        assert sec62.max_relative_spread(result, "DFSCACHE") < 0.35

    def test_bfs_degrades_only_near_num_top(self, result):
        bfs = result.column("BFS")
        # Monotone-ish growth, with the largest NumChildRel the worst.
        assert bfs[-1] == max(bfs)
        assert bfs[-1] > bfs[0]


class TestSmartShapes:
    @pytest.fixture(scope="class")
    def result(self):
        return smart.run(scale=SCALE)

    def test_smart_beats_bfs_at_low_update_rates(self, result):
        row = result.rows[0]
        pr, bfs, dfscache, smart_cost = row
        assert pr == 0.0
        assert smart_cost < bfs

    def test_smart_beats_dfscache_on_the_mix(self, result):
        for row in result.rows:
            assert row[3] <= row[2] * 1.05

    def test_smart_degrades_with_updates(self, result):
        smart_costs = result.column("SMART")
        assert smart_costs[-1] > smart_costs[0]


class TestAblationShapes:
    def test_cache_size_monotone_benefit(self):
        result = ablations.run_cache_size(scale=SCALE)
        costs = result.column("DFSCACHE")
        hit_rates = result.column("hit_rate")
        assert costs[-1] < costs[0]  # bigger cache, cheaper queries
        assert hit_rates[-1] > hit_rates[0]
        assert hit_rates == sorted(hit_rates)  # no step lowers the hit rate

    def test_buffer_size_helps_but_preserves_order(self):
        result = ablations.run_buffer_size(scale=SCALE)
        dfs = result.column("DFS")
        bfs = result.column("BFS")
        assert dfs[-1] < dfs[0]
        for d, b in zip(dfs, bfs):
            assert b < d  # BFS stays the winner at this NumTop

    def test_outside_beats_inside_when_shared(self):
        result = ablations.run_inside_outside(scale=SCALE)
        for row in result.rows:
            use_factor, outside, inside = row
            if use_factor >= 5:
                assert outside < inside, row


class TestDeepShapes:
    @pytest.fixture(scope="class")
    def result(self):
        return deep.run(scale=0.1, span=12)

    def test_dfs_grows_with_depth(self, result):
        dfs = result.column("DFS")
        assert dfs == sorted(dfs)

    def test_iteration_wins_deep(self, result):
        last = result.rows[-1]
        assert last[1] > 2 * last[2]  # DFS > 2x BFS at max depth

    def test_nodup_gain_marginal_but_nondecreasing(self, result):
        gains = result.column("nodup_gain")
        assert gains[-1] >= gains[0]
        assert gains[-1] < 0.2


class TestMatrixShapes:
    @pytest.fixture(scope="class")
    def result(self):
        return matrix.run(scale=0.2)

    def test_procedural_column_ordering(self, result):
        assert result.rows[0][0] == 0.0  # the first row is read-only
        pr0 = dict(zip(result.headers[1:], result.rows[0][1:]))
        assert pr0["PROC-CACHE-VALUES"] < pr0["PROC-CACHE-OIDS"] < pr0["PROC-EXEC"]

    def test_oid_column_beats_procedural_uncached(self, result):
        pr0 = dict(zip(result.headers[1:], result.rows[0][1:]))
        assert pr0["BFS"] < pr0["PROC-EXEC"]

    def test_updates_erode_caching_not_exec(self, result):
        pr0 = dict(zip(result.headers[1:], result.rows[0][1:]))
        hi = dict(zip(result.headers[1:], result.rows[-1][1:]))
        assert hi["PROC-EXEC"] - pr0["PROC-EXEC"] < (
            hi["PROC-CACHE-VALUES"] - pr0["PROC-CACHE-VALUES"]
        )


class TestOptShapes:
    @pytest.fixture(scope="class")
    def result(self):
        return opt.run(scale=0.1)

    def test_regret_negligible(self, result):
        assert opt.max_regret(result) <= 0.25

    def test_picks_dfs_small_bfs_large(self, result):
        first, last = result.rows[0], result.rows[-1]
        assert first[3] <= first[2]  # OPT <= BFS at NumTop=1
        assert last[3] <= 0.5 * last[1]  # OPT << DFS at the top end


class TestBufferPolicyAblationShapes:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_buffer_policy(scale=SCALE)

    def test_ordering_stable_across_policies(self, result):
        for policy, dfs, bfs, clust in result.rows:
            assert bfs < dfs, policy

    def test_policies_within_band(self, result):
        by_policy = {row[0]: row[1:] for row in result.rows}
        for lru_cost, clock_cost in zip(by_policy["lru"], by_policy["clock"]):
            assert abs(lru_cost - clock_cost) <= 0.5 * max(lru_cost, clock_cost)
