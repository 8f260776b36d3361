"""The game engine must be bit-identical to the pass-2 oracle on both tiers.

The whole pass-2 best-response round is one :mod:`repro.kernels` call
(``game_round``) with incremental delta-scoring and O(1) potential
maintenance.  DESIGN.md §10 argues bit-identity holds by construction —
both tiers compute the oracle's cost row op-for-op, first-minimum
argmin, no FMA contraction, and every quantity they fold incrementally
(adjacency rows, loads, ``S = sum(loads^2)``, cut) is integer-valued
below ``2**53``, so "incremental" and "recomputed" are the *same*
float64.  This module is the enforcement: each tier (forced through
``conftest.kernel_backend``) against :func:`best_response_dynamics` on
assignments, move sequences, round counts and full potential traces
across seeds and k; warm starts; the maintained-potential ==
recomputed-potential gate and its 2**53 fallback; and the vectorized
Nash check with its block primitive, ``batch_cost_matrix``.

The ``python`` tier's tests always run (no compiler needed); everything
touching a compiled backend is skip-marked cleanly, mirroring
``tests/test_kernels.py``.
"""

import numpy as np
import pytest
from conftest import BACKENDS, kernel_backend
from hypothesis import given, settings, strategies as st

from repro.config import GameConfig
from repro.core.cluster_graph import ClusterGraph, build_cluster_graph
from repro.core.clustering import streaming_clustering
from repro.core.game import (
    _IMPROVEMENT_EPS,
    ClusterPartitioningGame,
    best_response_dynamics,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.kernels import _pykernels


@pytest.fixture(scope="module")
def cluster_graph():
    g = web_crawl_graph(600, avg_out_degree=8, host_size=30, seed=9)
    s = EdgeStream.from_graph(g)
    clustering = streaming_clustering(s, max_volume=s.num_edges // 16, enable_splitting=True)
    return build_cluster_graph(s, clustering)


def _make_game(cluster_graph, k, backend, seed=0, initial_assignment=None, config=None):
    with kernel_backend(backend):
        return ClusterPartitioningGame(
            cluster_graph, k, config or GameConfig(seed=seed),
            initial_assignment=initial_assignment,
        )


def _run_engine(cluster_graph, k, seed, backend, *, initial_assignment=None):
    game = _make_game(cluster_graph, k, backend, seed, initial_assignment)
    return game, game.run(record_moves=True)


def _oracle(cluster_graph, k, seed, initial_assignment=None):
    return best_response_dynamics(
        cluster_graph, k, GameConfig(seed=seed), initial_assignment=initial_assignment
    )


def _assert_identical(a, b, label):
    assert np.array_equal(a.assignment, b.assignment), label
    assert a.rounds == b.rounds, label
    assert a.moves == b.moves, label
    assert a.converged == b.converged, label
    assert a.move_log == b.move_log, label
    # potential traces must match *bit for bit*: the kernel's O(1)
    # maintained potential uses the same IEEE op sequence as potential()
    assert a.potential_trace == b.potential_trace, label


def _assert_engines_match_oracle(cluster_graph, k, seed, backend, init=None, label=""):
    oracle = _oracle(cluster_graph, k, seed, init)
    run = _run_engine(cluster_graph, k, seed, backend, initial_assignment=init)[1]
    _assert_identical(oracle, run, f"{label} oracle vs {backend}")
    return oracle


def _nash_by_cost_vector(game):
    """The per-cluster definition ``is_nash_equilibrium`` must agree with."""
    return not any(
        game.cost_vector(c).min() < game.cost_vector(c)[game.assignment[c]] - _IMPROVEMENT_EPS
        for c in range(game.graph.num_clusters)
    )


# --------------------------------------------------------------------- #
# no selector left to validate (always runs)
# --------------------------------------------------------------------- #


def test_game_config_validates_impl_fields():
    for retired in ("game_impl", "kernel_backend"):
        with pytest.raises(TypeError):
            GameConfig(**{retired: "jit"})
    with pytest.raises(TypeError):
        ClusterPartitioningGame(ClusterGraph.from_dicts(1, [1], [{}], [{}]), 2, vectorized=False)


# --------------------------------------------------------------------- #
# identity: oracle == the engine on each tier
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("k", [2, 8, 100, 1024])
def test_three_way_identity_across_k(cluster_graph, k, backend):
    for seed in (0, 1, 2):
        _assert_engines_match_oracle(cluster_graph, k, seed, backend, label=f"k={k} s={seed}")


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_start_identity(cluster_graph, backend):
    k = 8
    # a mid-descent warm start: random init from a different seed
    rng = np.random.default_rng(42)
    init = rng.integers(0, k, size=cluster_graph.num_clusters).astype(np.int64)
    settled = _assert_engines_match_oracle(cluster_graph, k, 0, backend, init, "warm start")
    # an equilibrium warm start must be a fixed point of every engine
    again = _assert_engines_match_oracle(
        cluster_graph, k, 0, backend, settled.assignment, "equilibrium start"
    )
    assert again.moves == 0 and again.rounds == 1


# --------------------------------------------------------------------- #
# incremental potential == recomputed potential
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
def test_maintained_potential_equals_recomputed(cluster_graph, backend):
    for k, seed in ((2, 0), (8, 1), (100, 2)):
        game, result = _run_engine(cluster_graph, k, seed, backend)
        # the last trace entry came from the kernel's O(1) maintained
        # (S, C); potential() recomputes from scratch — exact equality,
        # not approx: both are the same IEEE expression on the same
        # integer-valued doubles
        assert result.potential_trace[-1] == game.potential()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "sizes",
    [
        [2**27, 2**27],
        # odd sizes: here the O(1)-maintained sum(loads**2) really does
        # round differently from the recompute (last trace digit)
        [2**27 + 1, 2**26 + 7, 2**25 + 3, 2**27 + 11],
    ],
    ids=["pair", "ring4"],
)
def test_load_mass_past_2_53_prices_the_trace_by_recompute(backend, sizes):
    # (sum internal)**2 >= 2**53: sum(loads**2) may not be an exact
    # float64 integer, so the kernel tier must stop trusting its
    # maintained value for the trace — decided from the input, no option
    m = len(sizes)
    ring = [{(c + 1) % m: 1} for c in range(m)]
    graph = ClusterGraph.from_dicts(m, sizes, ring, [{(c - 1) % m: 1} for c in range(m)])
    config = GameConfig(relative_weight=0.7)  # balance outweighs the cut edges
    init = np.zeros(m, dtype=np.int64)
    oracle = best_response_dynamics(graph, 2, config, initial_assignment=init)
    run = _make_game(graph, 2, backend, initial_assignment=init, config=config).run(
        record_moves=True
    )
    _assert_identical(oracle, run, f"internal={sizes}")
    assert run.moves >= 1 and run.converged


def test_python_rounds_past_the_table_cap_rebuild_each_row(cluster_graph, monkeypatch):
    # the python game_round keeps one (m, k) table per call only while
    # m * k fits its cap; past it each evaluated row is rebuilt from the
    # CSRs, like the C kernel, and the game is the same
    k = 8
    oracle = _assert_engines_match_oracle(cluster_graph, k, 0, "python", label="table")
    spans = []

    def spy(start, stop, *args, _rows=_pykernels.adjacency_rows):
        spans.append(stop - start)
        return _rows(start, stop, *args)

    monkeypatch.setattr(_pykernels, "_ROW_TABLE_MAX_CELLS", cluster_graph.num_clusters * k - 1)
    monkeypatch.setattr(_pykernels, "adjacency_rows", spy)
    rows = _assert_engines_match_oracle(cluster_graph, k, 0, "python", label="rows")
    assert rows.move_log == oracle.move_log and rows.moves > 0
    assert spans and set(spans) == {1}  # the cap really engaged: no table


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_cluster_graph_makes_no_move(backend):
    empty = ClusterGraph.from_dicts(0, np.empty(0, dtype=np.int64), [], [])
    game, result = _run_engine(empty, 4, 0, backend)
    oracle = best_response_dynamics(empty, 4, GameConfig(seed=0))
    assert result.assignment.size == 0 and result.moves == 0 and result.move_log == []
    assert result.converged and game.is_nash_equilibrium()
    assert (result.rounds, result.potential_trace) == (oracle.rounds, oracle.potential_trace)


# --------------------------------------------------------------------- #
# batched cost rows + the vectorized Nash check
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_cost_matrix_matches_cost_vector(cluster_graph, backend):
    k = 8
    m = cluster_graph.num_clusters
    rng = np.random.default_rng(11)
    assignment = rng.integers(0, k, size=m).astype(np.int64)
    game = _make_game(cluster_graph, k, backend, initial_assignment=assignment)
    for start, stop in ((0, m), (m // 3, 2 * m // 3), (m - 1, m), (5, 5)):
        got = game.batch_cost_matrix(start, stop, game.assignment, game.loads)
        want = np.array([game.cost_vector(c) for c in range(start, stop)]).reshape(-1, k)
        assert got.shape == want.shape == (stop - start, k)
        assert np.array_equal(got, want)  # bit-identical, not approx


def test_vectorized_nash_check_matches_reference_loop(cluster_graph):
    k = 4
    m = cluster_graph.num_clusters
    rng = np.random.default_rng(2)
    for trial in range(3):
        init = rng.integers(0, k, size=m).astype(np.int64)
        game = ClusterPartitioningGame(cluster_graph, k, initial_assignment=init)
        assert game.is_nash_equilibrium() == _nash_by_cost_vector(game)
    # after convergence both must agree it *is* an equilibrium
    game, result = _run_engine(cluster_graph, k, 0, "auto")
    assert result.converged and game.is_nash_equilibrium() and _nash_by_cost_vector(game)


def test_vectorized_nash_check_block_boundaries(cluster_graph, monkeypatch):
    # tiny blocks exercise the block loop, on a state that is not an
    # equilibrium and on one that is
    k = 4
    m = cluster_graph.num_clusters
    rng = np.random.default_rng(4)
    init = rng.integers(0, k, size=m).astype(np.int64)
    game = ClusterPartitioningGame(cluster_graph, k, initial_assignment=init)
    monkeypatch.setattr(ClusterPartitioningGame, "_NASH_BLOCK", 7)
    assert game.is_nash_equilibrium() == _nash_by_cost_vector(game)
    game.run()
    assert game.is_nash_equilibrium() and _nash_by_cost_vector(game)


# --------------------------------------------------------------------- #
# property tests: random web-crawl-ish streams
# --------------------------------------------------------------------- #


@settings(max_examples=20, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 23)),
        min_size=3, max_size=80,
    ),
    k=st.integers(2, 6),
    seed=st.integers(0, 50),
)
def test_property_three_way_identity(edges, k, seed):
    s = EdgeStream.from_graph(DiGraph.from_edges(edges))
    clustering = streaming_clustering(s, max_volume=max(1, s.num_edges // 2), enable_splitting=True)
    cg = build_cluster_graph(s, clustering)
    _assert_engines_match_oracle(cg, k, seed, "python", label="property")
    jit_game, jit = _run_engine(cg, k, seed, "python")
    assert jit.potential_trace[-1] == jit_game.potential()
    assert jit_game.is_nash_equilibrium() or not jit.converged
