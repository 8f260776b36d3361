"""Tests for the cluster-partitioning potential game (Section V).

Includes direct checks of the paper's theorems on small instances:
exact-potential property (Theorem 4), lambda range (Theorem 5), round
bound via monotone potential (Theorem 6), and PoS <= 2 (Theorem 8) against
brute-forced optima.
"""

import numpy as np
import pytest
from conftest import BACKENDS, kernel_backend
from hypothesis import given, settings, strategies as st

from repro.config import GameConfig
from repro.graph.digraph import DiGraph
from repro.graph.stream import EdgeStream
from repro.core.clustering import streaming_clustering
from repro.core.cluster_graph import ClusterGraph, build_cluster_graph
from repro.core.game import (
    ClusterPartitioningGame,
    compute_lambda_balanced,
    compute_lambda_max,
    exhaustive_optimum,
)


def make_cluster_graph(num_clusters, internal, inter):
    """Handmade cluster graph: ``inter`` is {(a, b): weight}."""
    out_edges = [dict() for _ in range(num_clusters)]
    in_edges = [dict() for _ in range(num_clusters)]
    for (a, b), w in inter.items():
        out_edges[a][b] = w
        in_edges[b][a] = w
    return ClusterGraph.from_dicts(
        num_clusters, np.asarray(internal, dtype=np.int64), out_edges, in_edges
    )


def crawl_cluster_graph(seed=0):
    from repro.graph.generators import web_crawl_graph

    g = web_crawl_graph(600, avg_out_degree=8, host_size=30, seed=seed)
    s = EdgeStream.from_graph(g)
    clustering = streaming_clustering(s, max_volume=s.num_edges // 16, enable_splitting=True)
    return build_cluster_graph(s, clustering)


class TestLambda:
    def test_lambda_max_formula(self):
        cg = make_cluster_graph(2, [3, 5], {(0, 1): 4})
        # weights max(2|c|, cut) = [6, 10]: k^2 * total_cut / total_weight^2
        # = 4 * 4 / 256, a quarter of the paper's 4 * 4 / 64 (2|c| >= cut)
        assert compute_lambda_max(cg, 2) == 0.0625

    def test_lambda_max_zero_internal(self):
        # clusters without internal edges weigh their cut: [3, 3]
        cg = make_cluster_graph(2, [0, 0], {(0, 1): 3})
        assert compute_lambda_max(cg, 4) == pytest.approx(16 * 3 / 36)
        # only a graph without edges has no weight, and no load term
        assert compute_lambda_max(make_cluster_graph(2, [0, 0], {}), 4) == 0.0

    def test_lambda_balanced_equalizes_terms(self):
        cg = crawl_cluster_graph()
        assignment = np.arange(cg.num_clusters) % 4
        lam = compute_lambda_balanced(cg, 4, assignment)
        loads = np.bincount(assignment, weights=cg.player_weights(), minlength=4)
        load_term = lam / 4 * np.sum(loads**2)
        cut = 0
        for c in range(cg.num_clusters):
            for j in range(cg.indptr[c], cg.indptr[c + 1]):
                if assignment[cg.indices[j]] != assignment[c]:
                    cut += cg.weights[j]
        assert load_term == pytest.approx(cut)

    def test_lambda_nonnegative_and_bounded(self):
        # Theorem 5: 0 <= lambda <= k^2 sum(cut) / (sum w_i)^2
        cg = crawl_cluster_graph()
        for k in (2, 8, 32):
            lam = compute_lambda_max(cg, k)
            bound = k**2 * cg.total_cut() / int(cg.player_weights().sum()) ** 2
            assert 0.0 <= lam <= bound + 1e-12


class TestExactPotential:
    def test_unilateral_move_deltas_match(self):
        # Theorem 4: Phi(a'_i, a_-i) - Phi(a_i, a_-i) ==
        #            phi(a'_i, a_-i) - phi(a_i, a_-i) for every move
        cg = crawl_cluster_graph(seed=1)
        game = ClusterPartitioningGame(cg, 4, GameConfig(seed=0))
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = int(rng.integers(cg.num_clusters))
            target = int(rng.integers(4))
            cur = int(game.assignment[c])
            if target == cur:
                continue
            phi_before = game.individual_cost(c)
            pot_before = game.potential()
            size = float(cg.player_weights()[c])
            game.loads[cur] -= size
            game.loads[target] += size
            game.assignment[c] = target
            phi_after = game.individual_cost(c)
            pot_after = game.potential()
            assert phi_after - phi_before == pytest.approx(
                pot_after - pot_before, rel=1e-9, abs=1e-9
            )

    def test_global_cost_is_sum_of_individual_costs(self):
        # Equation 12: phi(Lambda) == sum_i phi(a_i)
        cg = crawl_cluster_graph(seed=2)
        game = ClusterPartitioningGame(cg, 4, GameConfig(seed=1))
        total = sum(game.individual_cost(c) for c in range(cg.num_clusters))
        assert total == pytest.approx(game.global_cost(), rel=1e-9)


class TestDynamics:
    def test_potential_monotonically_decreases(self):
        cg = crawl_cluster_graph(seed=3)
        game = ClusterPartitioningGame(cg, 8, GameConfig(seed=0))
        result = game.run()
        trace = result.potential_trace
        for before, after in zip(trace, trace[1:]):
            assert after <= before + 1e-9

    def test_converges_to_nash_equilibrium(self):
        cg = crawl_cluster_graph(seed=4)
        game = ClusterPartitioningGame(cg, 8, GameConfig(seed=0))
        result = game.run()
        assert result.converged
        assert game.is_nash_equilibrium()

    def test_no_move_when_already_optimal(self):
        # one cluster, one partition: nothing to do
        cg = make_cluster_graph(1, [5], {})
        game = ClusterPartitioningGame(cg, 1, GameConfig(seed=0))
        result = game.run()
        assert result.moves == 0 and result.rounds == 1

    def test_seed_determines_outcome(self):
        cg = crawl_cluster_graph(seed=5)
        a = ClusterPartitioningGame(cg, 4, GameConfig(seed=3)).run()
        b = ClusterPartitioningGame(cg, 4, GameConfig(seed=3)).run()
        assert np.array_equal(a.assignment, b.assignment)

    def test_balance_pressure_spreads_clusters(self):
        # equal-size clusters, no inter edges: the game must spread them
        cg = make_cluster_graph(8, [10] * 8, {})
        game = ClusterPartitioningGame(
            cg, 4, GameConfig(seed=0, lambda_mode="fixed", lambda_value=1.0)
        )
        game.run()
        loads = np.bincount(game.assignment, weights=cg.internal, minlength=4)
        assert loads.max() == loads.min() == 20

    def test_cut_pressure_colocates_heavy_pair(self):
        # two clusters joined by a heavy edge, tiny lambda: same partition
        cg = make_cluster_graph(2, [1, 1], {(0, 1): 50})
        game = ClusterPartitioningGame(
            cg, 2, GameConfig(seed=0, lambda_mode="fixed", lambda_value=1e-6)
        )
        game.run()
        assert game.assignment[0] == game.assignment[1]

    def test_two_communities_separate_under_balance(self):
        # two dense pairs, lambda at max: each pair co-located, pairs apart
        cg = make_cluster_graph(
            4, [10, 10, 10, 10], {(0, 1): 20, (2, 3): 20, (1, 2): 1}
        )
        game = ClusterPartitioningGame(cg, 2, GameConfig(seed=1))
        game.run()
        assert game.assignment[0] == game.assignment[1]
        assert game.assignment[2] == game.assignment[3]
        assert game.assignment[0] != game.assignment[2]


class TestQualityBounds:
    def test_pos_bound_theorem8(self):
        # best Nash equilibrium cost <= 2 * optimum (PoS <= 2); we verify
        # the weaker testable form: the equilibrium found from any seed is
        # within factor 2*... of the brute-force optimum for the paper's
        # potential-based argument Phi <= phi <= 2 Phi
        cg = make_cluster_graph(
            3, [4, 2, 3], {(0, 1): 2, (1, 2): 1, (2, 0): 1}
        )
        k = 2
        lam = compute_lambda_max(cg, k)
        _, opt_cost = exhaustive_optimum(cg, k, lam)
        best_eq = np.inf
        for seed in range(6):
            game = ClusterPartitioningGame(cg, k, GameConfig(seed=seed))
            game.run()
            best_eq = min(best_eq, game.global_cost())
        assert best_eq <= 2.0 * opt_cost + 1e-9

    def test_poa_bound_theorem7(self):
        # every equilibrium cost <= (k+1) * sum of cluster cut degrees
        cg = make_cluster_graph(
            3, [4, 2, 3], {(0, 1): 2, (1, 2): 1, (2, 0): 1}
        )
        k = 2
        total_cut = cg.total_cut()
        for seed in range(6):
            game = ClusterPartitioningGame(cg, k, GameConfig(seed=seed))
            game.run()
            assert game.global_cost() <= (k + 1) * 2 * total_cut + 1e-9

    def test_equilibrium_beats_random_start(self):
        cg = crawl_cluster_graph(seed=6)
        game = ClusterPartitioningGame(cg, 8, GameConfig(seed=2))
        start_cost = game.global_cost()
        game.run()
        assert game.global_cost() <= start_cost

    def test_exhaustive_optimum_guard(self):
        cg = make_cluster_graph(30, [1] * 30, {})
        with pytest.raises(ValueError, match="too large"):
            exhaustive_optimum(cg, 4, 1.0)


class TestRelativeWeight:
    def test_weight_scales_load_term(self):
        cg = crawl_cluster_graph(seed=7)
        heavy_load = ClusterPartitioningGame(
            cg, 4, GameConfig(seed=0, relative_weight=0.9)
        )
        light_load = ClusterPartitioningGame(
            cg, 4, GameConfig(seed=0, relative_weight=0.1)
        )
        assert heavy_load._lambda_eff > light_load._lambda_eff

    def test_extreme_weight_balance_dominates(self):
        cg = make_cluster_graph(4, [10, 10, 10, 10], {(0, 1): 5, (2, 3): 5})
        game = ClusterPartitioningGame(
            cg, 4, GameConfig(seed=0, relative_weight=0.99)
        )
        game.run()
        loads = np.bincount(game.assignment, weights=cg.internal, minlength=4)
        assert loads.max() == 10  # perfectly spread despite the cut cost


@settings(max_examples=15, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=3, max_size=60
    ),
    k=st.integers(2, 6),
    seed=st.integers(0, 100),
)
def test_property_game_reaches_stable_state(edges, k, seed):
    s = EdgeStream.from_graph(DiGraph.from_edges(edges))
    clustering = streaming_clustering(s, max_volume=max(1, s.num_edges // 2), enable_splitting=True)
    cg = build_cluster_graph(s, clustering)
    game = ClusterPartitioningGame(cg, k, GameConfig(seed=seed, max_rounds=200))
    result = game.run()
    assert result.converged
    assert game.is_nash_equilibrium()
    # potential decreased weakly and assignment is valid
    assert result.potential_trace[-1] <= result.potential_trace[0] + 1e-9
    assert (result.assignment >= 0).all() and (result.assignment < k).all()


class TestInitialAssignment:
    """Warm starts: the distributed coordinator's refinement entry point."""

    def test_equilibrium_warm_start_is_fixed_point(self):
        cg = crawl_cluster_graph(seed=3)
        first = ClusterPartitioningGame(cg, 4, GameConfig(seed=1)).run()
        refine = ClusterPartitioningGame(
            cg, 4, GameConfig(seed=1), initial_assignment=first.assignment
        ).run()
        assert refine.moves == 0
        assert refine.rounds == 1
        assert np.array_equal(refine.assignment, first.assignment)

    def test_warm_start_replaces_random_init(self):
        cg = crawl_cluster_graph(seed=3)
        init = np.zeros(cg.num_clusters, dtype=np.int64)
        game = ClusterPartitioningGame(cg, 4, initial_assignment=init)
        assert np.array_equal(game.assignment, init)
        assert game.assignment is not init  # defensive copy
        result = game.run()
        assert game.is_nash_equilibrium()
        assert result.converged

    def test_validates_initial_assignment(self):
        cg = crawl_cluster_graph(seed=3)
        with pytest.raises(ValueError, match="initial_assignment must map"):
            ClusterPartitioningGame(
                cg, 4, initial_assignment=np.zeros(1, dtype=np.int64)
            )
        with pytest.raises(ValueError, match="out of range"):
            ClusterPartitioningGame(
                cg, 4,
                initial_assignment=np.full(cg.num_clusters, 9, dtype=np.int64),
            )

    def test_refuses_partitions_that_are_not_whole_numbers(self):
        # astype(int64) truncates: [0.5, 1.2, 0] once played from [0, 1, 0]
        cg = ClusterGraph.from_dicts(3, [1, 1, 1], [{1: 1}, {2: 1}, {}], [{}, {0: 1}, {1: 1}])
        for bad in ([0.5, 1.2, 0], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0]):
            with pytest.raises(ValueError, match="whole numbers"):
                ClusterPartitioningGame(cg, 2, initial_assignment=bad)
        game = ClusterPartitioningGame(cg, 2, initial_assignment=[1.0, 0.0, 1.0])
        assert game.assignment.dtype == np.int64
        assert game.assignment.tolist() == [1, 0, 1]


class TestPlayerWeights:
    """Players weigh ``max(2|c|, cut(c))``, not Equation 11's ``|c|``."""

    def test_weight_is_the_larger_of_twice_internal_and_cut(self):
        cg = make_cluster_graph(3, [5, 0, 1], {(0, 1): 4, (1, 2): 3, (2, 0): 1})
        # cut degrees [5, 7, 4]
        assert cg.player_weights().tolist() == [10, 7, 4]
        assert cg.player_weights().dtype == np.int64

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_weightless_singletons_do_not_pile_onto_the_hub(self, backend):
        # one hub cluster and 40 singletons (internal 0), each with three
        # edges to the hub and every other one an edge to its neighbour:
        # weighed by |c| the singletons cost no load anywhere and the cut
        # pulls all 40 onto the hub's partition
        m = 41
        inter = {(s, 0): 3 for s in range(1, m)}
        inter.update({(s, s + 1): 1 for s in range(1, m - 1, 2)})
        cg = make_cluster_graph(m, [60] + [0] * (m - 1), inter)
        for seed in range(3):
            with kernel_backend(backend):
                game = ClusterPartitioningGame(cg, 4, GameConfig(seed=seed))
            result = game.run()
            on_hub = int((result.assignment[1:] == result.assignment[0]).sum())
            assert on_hub < (m - 1) // 2, (seed, on_hub)
            assert game.is_nash_equilibrium()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_game_is_unchanged_where_internal_edges_dominate(self, backend):
        # 2|c| >= cut(c) for every cluster: the weights are 2|c|, and the
        # run is bit for bit the one Equation 11's |c| gives (values
        # recorded with |c| as the weight)
        cg = make_cluster_graph(
            10,
            [9, 4, 7, 3, 6, 8, 2, 5, 6, 4],
            {(0, 1): 3, (0, 2): 2, (1, 3): 2, (2, 4): 4, (3, 5): 1, (4, 6): 1,
             (5, 7): 3, (6, 8): 2, (7, 9): 2, (8, 0): 3, (9, 2): 1, (5, 1): 2,
             (4, 8): 2, (3, 9): 1},
        )
        assert np.array_equal(cg.player_weights(), 2 * cg.internal)
        with kernel_backend(backend):
            game = ClusterPartitioningGame(cg, 3, GameConfig(seed=1))
        result = game.run(record_moves=True)
        assert result.rounds == 4
        assert result.assignment.tolist() == [0, 2, 1, 2, 1, 2, 0, 2, 0, 2]
        assert result.move_log == [
            (2, 2, 1), (4, 0, 2), (5, 0, 2), (6, 2, 0), (7, 2, 0),
            (1, 1, 2), (4, 2, 1), (7, 0, 2), (9, 0, 2), (0, 1, 0),
        ]
        assert result.potential_trace == [
            27.424897119341566, 24.089506172839506, 21.767489711934157,
            19.924897119341566, 19.924897119341566,
        ]
