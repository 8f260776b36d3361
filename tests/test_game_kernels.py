"""Both game engines must be bit-identical to the pass-2 oracle.

PR 9 compiles the whole pass-2 best-response round into one
:mod:`repro.kernels` call (``game_round``) with incremental
delta-scoring and O(1) potential maintenance.  DESIGN.md §10 argues
bit-identity holds by construction — the kernel transliterates the
numpy cost row op-for-op, first-minimum argmin, no FMA contraction,
and every quantity it folds incrementally (adjacency table, loads,
``S = sum(loads^2)``, cut) is integer-valued below ``2**53``, so
"incremental" and "recomputed" are the *same* float64.  This module is
the enforcement: the kernel tier and the numpy tier (forced through
``conftest.kernel_backend``) against :func:`best_response_dynamics` on
assignments, move sequences, round counts and full potential traces
across seeds and k; warm starts; frontier-restricted active masks; the
forced-tiny adjacency-table cap (`adj is None` on-demand-row path);
the maintained-potential == recomputed-potential gate and its 2**53
fallback; the vectorized Nash check; and the batched cost-row primitive
behind ``parallel_game``.

The plain-Python kernel backend tests always run (no compiler
needed); everything touching a compiled backend is skip-marked
cleanly, mirroring ``tests/test_kernels.py``.
"""

import numpy as np
import pytest
from conftest import KERNEL_BACKENDS, kernel_backend
from hypothesis import given, settings, strategies as st

from repro.config import GameConfig
from repro.core import game as game_mod
from repro.core.cluster_graph import ClusterGraph, build_cluster_graph
from repro.core.clustering import streaming_clustering
from repro.core.game import (
    _IMPROVEMENT_EPS,
    ClusterPartitioningGame,
    best_response_dynamics,
)
from repro.core.parallel import parallel_game
from repro.graph.digraph import DiGraph
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream


@pytest.fixture(scope="module")
def cluster_graph():
    g = web_crawl_graph(600, avg_out_degree=8, host_size=30, seed=9)
    s = EdgeStream.from_graph(g)
    clustering = streaming_clustering(s, max_volume=s.num_edges // 16)
    return build_cluster_graph(s, clustering)


def _make_game(cluster_graph, k, backend, seed=0, initial_assignment=None, config=None):
    with kernel_backend(backend):
        return ClusterPartitioningGame(
            cluster_graph, k, config or GameConfig(seed=seed),
            initial_assignment=initial_assignment,
        )


def _run_engine(cluster_graph, k, seed, backend, *, initial_assignment=None, active=None):
    game = _make_game(cluster_graph, k, backend, seed, initial_assignment)
    return game, game.run(active=active, record_moves=True)


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
    for tier in ("none", backend):
        run = _run_engine(cluster_graph, k, seed, tier, initial_assignment=init)[1]
        _assert_identical(oracle, run, f"{label} oracle vs {tier}")
    return oracle


def _nash_by_cost_vector(game, active=None):
    """The per-cluster definition ``is_nash_equilibrium`` must agree with."""
    clusters = range(game.graph.num_clusters) if active is None else np.flatnonzero(active)
    return not any(
        game.cost_vector(c).min() < game.cost_vector(c)[game.assignment[c]] - _IMPROVEMENT_EPS
        for c in clusters
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


def test_jit_with_no_backend_degrades_to_fast(cluster_graph):
    game, degraded = _run_engine(cluster_graph, 8, 0, "none")
    assert game._backend is None  # degraded, not broken
    _assert_identical(_oracle(cluster_graph, 8, 0), degraded, "oracle vs numpy tier")


# --------------------------------------------------------------------- #
# three-way identity: oracle == numpy tier == kernel tier
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
@pytest.mark.parametrize("k", [2, 8, 100, 1024])
def test_three_way_identity_across_k(cluster_graph, k, backend):
    for seed in (0, 1, 2):
        _assert_engines_match_oracle(cluster_graph, k, seed, backend, label=f"k={k} s={seed}")


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
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


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_active_mask_identity(cluster_graph, backend):
    k = 8
    m = cluster_graph.num_clusters
    rng = np.random.default_rng(5)
    init = rng.integers(0, k, size=m).astype(np.int64)
    active = rng.random(m) < 0.4
    game_fast, fast = _run_engine(
        cluster_graph, k, 0, "none", initial_assignment=init, active=active
    )
    game_jit, jit = _run_engine(
        cluster_graph, k, 0, backend, initial_assignment=init, active=active
    )
    _assert_identical(fast, jit, "active mask")
    # frozen players really were frozen, and the frontier settled
    frozen = ~active
    assert np.array_equal(jit.assignment[frozen], init[frozen])
    assert game_jit.is_nash_equilibrium(active=active)
    assert game_fast.is_nash_equilibrium(active=active)


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_empty_and_full_active_masks(cluster_graph, backend):
    k = 4
    m = cluster_graph.num_clusters
    init = np.zeros(m, dtype=np.int64)
    _, noop = _run_engine(
        cluster_graph, k, 0, backend,
        initial_assignment=init, active=np.zeros(m, dtype=bool),
    )
    assert noop.moves == 0
    assert np.array_equal(noop.assignment, init)
    _, full = _run_engine(cluster_graph, k, 0, backend, active=np.ones(m, dtype=bool))
    _, plain = _run_engine(cluster_graph, k, 0, backend)
    _assert_identical(full, plain, "all-true mask == no mask")


# --------------------------------------------------------------------- #
# incremental potential == recomputed potential
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_maintained_potential_equals_recomputed(cluster_graph, backend):
    for k, seed in ((2, 0), (8, 1), (100, 2)):
        game, result = _run_engine(cluster_graph, k, seed, backend)
        # the last trace entry came from the kernel's O(1) maintained
        # (S, C); potential() recomputes from scratch — exact equality,
        # not approx: both are the same IEEE expression on the same
        # integer-valued doubles
        assert result.potential_trace[-1] == game.potential()


def test_fast_engine_trace_matches_recomputed(cluster_graph):
    # the numpy engine recomputes per round — anchor for the gate above
    game, result = _run_engine(cluster_graph, 8, 1, "none")
    assert result.potential_trace[-1] == game.potential()


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
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
    numpy_run, kernel_run = (
        _make_game(graph, 2, tier, initial_assignment=init, config=config).run(record_moves=True)
        for tier in ("none", backend)
    )
    _assert_identical(numpy_run, kernel_run, f"internal={sizes}")
    assert numpy_run.moves >= 1 and numpy_run.converged


# --------------------------------------------------------------------- #
# forced-tiny adjacency-table cap: the `adj is None` on-demand-row path
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_tiny_table_cap_unifies_paths(cluster_graph, backend, monkeypatch):
    k = 8
    oracle = _assert_engines_match_oracle(cluster_graph, k, 0, backend, label="table")
    # force every game over the cap: the table no longer fits, both
    # engines rebuild each mover's row on demand from the CSR view
    monkeypatch.setattr(game_mod, "_ADJ_TABLE_MAX_CELLS", 1)
    game = ClusterPartitioningGame(cluster_graph, k, GameConfig(seed=0))
    assert game._build_adj_table() is None  # the cap really engaged
    assert _assert_engines_match_oracle(
        cluster_graph, k, 0, backend, label="no table"
    ).move_log == oracle.move_log


# --------------------------------------------------------------------- #
# batched cost rows + the vectorized Nash check + parallel_game
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_batch_cost_matrix_kernel_matches_numpy(cluster_graph, backend):
    k = 8
    numpy_game = _make_game(cluster_graph, k, "none", seed=3)
    jit_game = _make_game(cluster_graph, k, backend, seed=3)
    m = cluster_graph.num_clusters
    rng = np.random.default_rng(11)
    assignment = rng.integers(0, k, size=m).astype(np.int64)
    loads = np.bincount(
        assignment, weights=cluster_graph.internal.astype(np.float64),
        minlength=k,
    )
    for start, stop in ((0, m), (m // 3, 2 * m // 3), (m - 1, m), (5, 5)):
        a = numpy_game.batch_cost_matrix(start, stop, assignment, loads)
        b = jit_game.batch_cost_matrix(start, stop, assignment, loads)
        assert a.shape == b.shape == (stop - start, k)
        assert np.array_equal(a, b)  # bit-identical, not approx


def test_vectorized_nash_check_matches_reference_loop(cluster_graph):
    k = 4
    m = cluster_graph.num_clusters
    rng = np.random.default_rng(2)
    for trial in range(3):
        init = rng.integers(0, k, size=m).astype(np.int64)
        game = ClusterPartitioningGame(cluster_graph, k, initial_assignment=init)
        assert game.is_nash_equilibrium() == _nash_by_cost_vector(game)
        active = rng.random(m) < 0.3
        assert game.is_nash_equilibrium(active=active) == _nash_by_cost_vector(game, active)
    # after convergence both must agree it *is* an equilibrium
    game, result = _run_engine(cluster_graph, k, 0, "auto")
    assert result.converged and game.is_nash_equilibrium() and _nash_by_cost_vector(game)


def test_vectorized_nash_check_block_boundaries(cluster_graph, monkeypatch):
    # tiny blocks exercise the block loop + early-exit on masked blocks
    k = 4
    m = cluster_graph.num_clusters
    rng = np.random.default_rng(4)
    init = rng.integers(0, k, size=m).astype(np.int64)
    game = ClusterPartitioningGame(cluster_graph, k, initial_assignment=init)
    monkeypatch.setattr(ClusterPartitioningGame, "_NASH_BLOCK", 7)
    active = np.zeros(m, dtype=bool)
    active[m // 2 :] = True  # whole leading blocks all-masked
    assert game.is_nash_equilibrium() == _nash_by_cost_vector(game)
    assert game.is_nash_equilibrium(active=active) == _nash_by_cost_vector(game, active)


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_parallel_game_jit_matches_fast(cluster_graph, backend):
    k = 8
    with kernel_backend("none"):
        fast = parallel_game(cluster_graph, k, GameConfig(seed=0))
    with kernel_backend(backend):
        jit = parallel_game(cluster_graph, k, GameConfig(seed=0))
    assert np.array_equal(fast.assignment, jit.assignment)
    assert fast.rounds == jit.rounds
    assert fast.moves == jit.moves
    assert fast.potential_trace == jit.potential_trace


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
    clustering = streaming_clustering(s, max_volume=max(1, s.num_edges // 2))
    cg = build_cluster_graph(s, clustering)
    _assert_engines_match_oracle(cg, k, seed, "python", label="property")
    jit_game, jit = _run_engine(cg, k, seed, "python")
    assert jit.potential_trace[-1] == jit_game.potential()
    assert jit_game.is_nash_equilibrium() or not jit.converged


@settings(max_examples=10, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        min_size=3, max_size=50,
    ),
    k=st.integers(2, 4),
    frontier=st.integers(0, 2**15 - 1),
)
def test_property_active_mask_identity(edges, k, frontier):
    s = EdgeStream.from_graph(DiGraph.from_edges(edges))
    clustering = streaming_clustering(s, max_volume=max(1, s.num_edges // 2))
    cg = build_cluster_graph(s, clustering)
    m = cg.num_clusters
    active = np.array([(frontier >> (i % 15)) & 1 == 1 for i in range(m)])
    rng = np.random.default_rng(0)
    init = rng.integers(0, k, size=m).astype(np.int64)
    fast = _run_engine(cg, k, 0, "none", initial_assignment=init, active=active)[1]
    jit = _run_engine(cg, k, 0, "python", initial_assignment=init, active=active)[1]
    _assert_identical(fast, jit, "property: active mask")
    assert np.array_equal(jit.assignment[~active], init[~active])
