"""CLUGP chunk-size independence, pass by pass: each chunk engine must be
bit-identical to its per-edge oracle for every chunk size.

The whole pipeline (all three variants, per-pass products included) is a
row of the one differential, ``test_kernels.py::
test_streaming_three_way_identity``; here are each pass in isolation
(:class:`ClusteringState`, :class:`TransformState`, the vectorized game),
the distributed deployment, and the clustering invariants every chunk
engine must preserve (exact volume accounting and the split-at-most-once
guard; see DESIGN.md — ``volume <= V_max`` itself is *not* an invariant
of the guarded algorithm, full clusters keep absorbing intra-cluster
edges).  Chunk sizes 1, 7, 1 024 and the whole stream pin that a chunk
boundary carries all the state an engine needs: the loads, the spill
pointer and the rule counters through pass 3, the list-backed tables
through pass 1.
"""

import numpy as np
import pytest
from conftest import assert_clustering_equal
from hypothesis import given, settings, strategies as st

from repro.config import GameConfig
from repro.core.clustering import ClusteringState, streaming_clustering
from repro.core.cluster_graph import build_cluster_graph
from repro.core.distributed import distributed_clugp
from repro.core.game import ClusterPartitioningGame, best_response_dynamics
from repro.core.transform import TransformState, transform_partitions
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream


@pytest.fixture(scope="module")
def stream():
    graph = web_crawl_graph(
        600, avg_out_degree=8.0, host_size=25, intra_host_prob=0.85, seed=13
    )
    return EdgeStream.from_graph(graph)


def chunk_sizes(stream):
    return (1, 7, 1024, stream.num_edges)


def pass1(stream, vmax, chunk_size, enable_splitting=True):
    return ClusteringState(stream.num_vertices, vmax, enable_splitting).run(stream, chunk_size)


def pass3(stream, clustering, cluster_partition, k, tau, chunk_size):
    state = TransformState(
        clustering, cluster_partition, k, num_edges=stream.num_edges,
        num_vertices=stream.num_vertices, imbalance_factor=tau,
    )
    out = np.empty(stream.num_edges, dtype=np.int64)
    state.run(stream, chunk_size, out)
    return out, state


class TestClusteringState:
    @pytest.mark.parametrize("splitting", [True, False])
    def test_bit_identical_across_chunk_sizes(self, stream, splitting):
        vmax = max(1, stream.num_edges // 16)
        reference = streaming_clustering(stream, vmax, enable_splitting=splitting)
        for cs in chunk_sizes(stream):
            assert_clustering_equal(reference, pass1(stream, vmax, cs, splitting))

    def test_invariant_volume_is_member_degree_sum(self, stream):
        # every allocation (+1 per endpoint), migration and split (+/- deg)
        # preserves vol(c) == sum of current member degrees exactly
        for cs in (7, 1024):
            result = pass1(stream, max(1, stream.num_edges // 16), cs)
            recomputed = np.zeros(result.num_clusters, dtype=np.int64)
            np.add.at(
                recomputed,
                result.cluster_of[result.cluster_of >= 0],
                result.degree[result.cluster_of >= 0],
            )
            assert np.array_equal(recomputed, result.volume)
            assert recomputed.sum() == 2 * stream.num_edges

    def test_invariant_split_at_most_once(self, stream):
        result = pass1(stream, max(1, stream.num_edges // 32), 777)
        assert result.splits == int(result.divided.sum()) > 0

    def test_no_splits_without_splitting(self, stream):
        result = pass1(stream, max(1, stream.num_edges // 32), 777, enable_splitting=False)
        assert result.splits == 0
        assert not result.divided.any()

    def test_ingest_after_finalize_rejected(self):
        state = ClusteringState(4, 10, enable_splitting=True)
        state.ingest_pair([0], [1])
        state.finalize()
        with pytest.raises(RuntimeError):
            state.ingest_pair([1], [2])


class TestTransformState:
    @pytest.mark.parametrize("tau", [1.0, 1.05, 1.5])
    def test_bit_identical_across_chunk_sizes(self, stream, tau):
        # tau=1.0 makes the load cap bite early, so the spill branch and
        # the rotating spill pointer run often and cross chunk boundaries
        clustering = streaming_clustering(
            stream, max(1, stream.num_edges // 8), enable_splitting=True
        )
        cg = build_cluster_graph(stream, clustering)
        game = ClusterPartitioningGame(cg, 4, GameConfig(seed=0)).run()
        ref, ref_stats = transform_partitions(
            stream, clustering, game.assignment, 4, imbalance_factor=tau
        )
        for cs in chunk_sizes(stream):
            got, state = pass3(stream, clustering, game.assignment, 4, tau, cs)
            stats = state.stats
            assert np.array_equal(ref, got), f"diverged at chunk_size={cs}"
            assert (
                stats.agreement,
                stats.mirror_reuse,
                stats.degree_cut,
                stats.balance_spill,
            ) == (
                ref_stats.agreement,
                ref_stats.mirror_reuse,
                ref_stats.degree_cut,
                ref_stats.balance_spill,
            )

    def test_load_cap_strictly_enforced(self, stream):
        clustering = streaming_clustering(
            stream, max(1, stream.num_edges // 8), enable_splitting=True
        )
        cg = build_cluster_graph(stream, clustering)
        game = ClusterPartitioningGame(cg, 4, GameConfig(seed=0)).run()
        out, state = pass3(stream, clustering, game.assignment, 4, 1.0, 257)
        loads = np.bincount(out, minlength=4)
        assert loads.max() <= state.load_cap and np.array_equal(loads, state.loads)

    def test_rejects_bad_inputs(self, stream):
        clustering = streaming_clustering(
            stream, max(1, stream.num_edges // 8), enable_splitting=True
        )
        with pytest.raises(ValueError):
            TransformState(
                clustering,
                np.zeros(clustering.num_clusters + 1, dtype=np.int64),
                4,
                num_edges=stream.num_edges,
                num_vertices=stream.num_vertices,
            )
        with pytest.raises(ValueError):
            TransformState(
                clustering,
                np.zeros(clustering.num_clusters, dtype=np.int64),
                4,
                num_edges=stream.num_edges,
                num_vertices=stream.num_vertices,
                imbalance_factor=0.5,
            )
        # an ``out`` a kernel could not index as the chunk's int64 slice
        state = TransformState(
            clustering, np.zeros(clustering.num_clusters, dtype=np.int64), 4,
            num_edges=stream.num_edges, num_vertices=stream.num_vertices,
        )
        u, v = stream.src[:10], stream.dst[:10]
        for bad in (np.empty(9, np.int64), np.empty(10, np.int32), np.empty(20, np.int64)[::2]):
            with pytest.raises(ValueError, match="out must be"):
                state.ingest_pair(u, v, out=bad)
        assert state.stats.total() == 0  # refused before any edge was placed


class TestGameVectorization:
    def test_vectorized_matches_reference_scorer(self, stream):
        clustering = streaming_clustering(
            stream, max(1, stream.num_edges // 16), enable_splitting=True
        )
        cg = build_cluster_graph(stream, clustering)
        for seed in range(3):
            ref = best_response_dynamics(cg, 8, GameConfig(seed=seed))
            vec = ClusterPartitioningGame(cg, 8, GameConfig(seed=seed)).run()
            assert np.array_equal(ref.assignment, vec.assignment)
            assert (ref.rounds, ref.moves) == (vec.rounds, vec.moves)
            assert ref.potential_trace == vec.potential_trace


class TestDistributedChunked:
    def test_nodes_run_chunked_pipeline(self, stream):
        a = distributed_clugp(stream, 4, num_nodes=3, seed=5)
        b = distributed_clugp(stream, 4, num_nodes=3, seed=5, chunk_size=211)
        assert np.array_equal(
            a.assignment.edge_partition, b.assignment.edge_partition
        )
        assert len(a.nodes) == 3


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=100
    ),
    vmax=st.integers(1, 30),
    split=st.booleans(),
    chunk_size=st.sampled_from([1, 3, 7, 64]),
)
def test_property_chunked_clustering_bit_identical(edges, vmax, split, chunk_size):
    src, dst = zip(*edges)
    s = EdgeStream(np.asarray(src), np.asarray(dst), max(max(src), max(dst)) + 1)
    reference = streaming_clustering(s, vmax, enable_splitting=split)
    assert_clustering_equal(reference, pass1(s, vmax, chunk_size, split))
