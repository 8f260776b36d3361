"""CLUGP chunk-size independence: the chunked three-pass pipeline must be
bit-identical to the retained per-edge reference path for every chunk size.

Covers the full pipeline (all three variants), each pass in isolation
(:class:`ClusteringState`, :class:`TransformState`, the vectorized game),
the distributed deployment, and the clustering invariants that the
boring/suspect decomposition must preserve (exact volume accounting and
the split-at-most-once guard; see DESIGN.md — ``volume <= V_max`` itself
is *not* an invariant of the guarded algorithm, full clusters keep
absorbing intra-cluster edges).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GameConfig
from repro.core.clustering import (
    ClusteringState,
    streaming_clustering,
    streaming_clustering_chunked,
)
from repro.core.cluster_graph import build_cluster_graph
from repro.core.distributed import distributed_clugp
from repro.core.game import ClusterPartitioningGame, best_response_dynamics
from repro.core.transform import (
    TransformState,
    transform_partitions,
    transform_partitions_chunked,
)
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.partitioners.registry import make_partitioner

CLUGP_VARIANTS = ("clugp", "clugp-s", "clugp-g")


@pytest.fixture(scope="module")
def stream():
    graph = web_crawl_graph(
        600, avg_out_degree=8.0, host_size=25, intra_host_prob=0.85, seed=13
    )
    return EdgeStream.from_graph(graph)


def chunk_sizes(stream):
    return (1, 7, 1024, stream.num_edges)


def assert_clustering_equal(a, b):
    assert np.array_equal(a.cluster_of, b.cluster_of)
    assert np.array_equal(a.degree, b.degree)
    assert np.array_equal(a.volume, b.volume)
    assert np.array_equal(a.divided, b.divided)
    assert a.mirror_clusters == b.mirror_clusters
    assert a.num_clusters == b.num_clusters
    assert (a.splits, a.migrations, a.allocations) == (
        b.splits,
        b.migrations,
        b.allocations,
    )


class TestFullPipeline:
    @pytest.mark.parametrize("name", CLUGP_VARIANTS)
    def test_chunked_bit_identical_across_chunk_sizes(self, name, stream):
        reference = make_partitioner(name, 8, seed=3).partition_per_edge(stream)
        for cs in chunk_sizes(stream):
            chunked = make_partitioner(name, 8, seed=3).partition_chunked(
                stream, chunk_size=cs
            )
            assert np.array_equal(
                reference.edge_partition, chunked.edge_partition
            ), f"{name} diverged at chunk_size={cs}"

    @pytest.mark.parametrize("name", CLUGP_VARIANTS)
    def test_default_partition_matches_reference(self, name, stream):
        reference = make_partitioner(name, 8, seed=3).partition_per_edge(stream)
        default = make_partitioner(name, 8, seed=3).partition(stream)
        assert np.array_equal(reference.edge_partition, default.edge_partition)

    def test_chunk_protocol_exposes_pipeline_artifacts(self, stream):
        p = make_partitioner("clugp", 8, seed=3)
        p.partition_chunked(stream, chunk_size=101)
        assert p.last_clustering is not None
        assert p.last_cluster_graph is not None
        assert p.last_game_result is not None
        assert p.last_transform_stats is not None
        assert p.last_transform_stats.total() == stream.num_edges

    def test_chunk_protocol_empty_stream(self):
        empty = EdgeStream([], [], num_vertices=0)
        for name in CLUGP_VARIANTS:
            assignment = make_partitioner(name, 4).partition_chunked(empty)
            assert assignment.edge_partition.size == 0

    def test_stats_identical_between_paths(self, stream):
        ref = make_partitioner("clugp", 8, seed=3)
        ref.partition_per_edge(stream)
        chk = make_partitioner("clugp", 8, seed=3)
        chk.partition_chunked(stream, chunk_size=509)
        a, b = ref.last_transform_stats, chk.last_transform_stats
        assert (a.agreement, a.mirror_reuse, a.degree_cut, a.balance_spill) == (
            b.agreement,
            b.mirror_reuse,
            b.degree_cut,
            b.balance_spill,
        )
        assert_clustering_equal(ref.last_clustering, chk.last_clustering)


class TestClusteringState:
    @pytest.mark.parametrize("splitting", [True, False])
    def test_bit_identical_across_chunk_sizes(self, stream, splitting):
        vmax = max(1, stream.num_edges // 16)
        reference = streaming_clustering(stream, vmax, enable_splitting=splitting)
        for cs in chunk_sizes(stream):
            got = streaming_clustering_chunked(
                stream, vmax, enable_splitting=splitting, chunk_size=cs
            )
            assert_clustering_equal(reference, got)

    def test_invariant_volume_is_member_degree_sum(self, stream):
        # every allocation (+1 per endpoint), migration and split (+/- deg)
        # preserves vol(c) == sum of current member degrees exactly
        for cs in (7, 1024):
            result = streaming_clustering_chunked(
                stream, max(1, stream.num_edges // 16), chunk_size=cs
            )
            recomputed = np.zeros(result.num_clusters, dtype=np.int64)
            np.add.at(
                recomputed,
                result.cluster_of[result.cluster_of >= 0],
                result.degree[result.cluster_of >= 0],
            )
            assert np.array_equal(recomputed, result.volume)
            assert recomputed.sum() == 2 * stream.num_edges

    def test_invariant_split_at_most_once(self, stream):
        result = streaming_clustering_chunked(
            stream, max(1, stream.num_edges // 32), chunk_size=777
        )
        assert result.splits == int(result.divided.sum())
        for v, mirrors in result.mirror_clusters.items():
            assert result.divided[v]
            assert len(mirrors) == 1  # one mirror per divided vertex

    def test_no_splits_without_splitting(self, stream):
        result = streaming_clustering_chunked(
            stream, max(1, stream.num_edges // 32), enable_splitting=False,
            chunk_size=777,
        )
        assert result.splits == 0
        assert not result.divided.any()
        assert not result.mirror_clusters

    def test_ingest_after_finalize_rejected(self):
        state = ClusteringState(4, 10)
        state.ingest(np.array([[0, 1]], dtype=np.int64))
        state.finalize()
        with pytest.raises(RuntimeError):
            state.ingest(np.array([[1, 2]], dtype=np.int64))

    def test_members_groupby_matches_loop(self, stream):
        result = streaming_clustering(stream, max(1, stream.num_edges // 16))
        members = result.members()
        expected = {}
        for v, c in enumerate(result.cluster_of.tolist()):
            if c >= 0:
                expected.setdefault(c, []).append(v)
        assert members == expected


class TestTransformState:
    @pytest.mark.parametrize("tau", [1.0, 1.05, 1.5])
    def test_bit_identical_across_chunk_sizes(self, stream, tau):
        # tau=1.0 forces the load cap to bite early, exercising the exact
        # prefix-commit cut and the spill-pointer scalar tail heavily
        clustering = streaming_clustering(stream, max(1, stream.num_edges // 8))
        cg = build_cluster_graph(stream, clustering)
        game = ClusterPartitioningGame(cg, 4, GameConfig(seed=0)).run()
        ref, ref_stats = transform_partitions(
            stream, clustering, game.assignment, 4, imbalance_factor=tau
        )
        for cs in chunk_sizes(stream):
            got, stats = transform_partitions_chunked(
                stream, clustering, game.assignment, 4,
                imbalance_factor=tau, chunk_size=cs,
            )
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
        clustering = streaming_clustering(stream, max(1, stream.num_edges // 8))
        cg = build_cluster_graph(stream, clustering)
        game = ClusterPartitioningGame(cg, 4, GameConfig(seed=0)).run()
        state = TransformState(
            clustering, game.assignment, 4,
            num_edges=stream.num_edges, num_vertices=stream.num_vertices,
            imbalance_factor=1.0,
        )
        parts = [state.ingest(c) for c in stream.chunks(257)]
        loads = np.bincount(np.concatenate(parts), minlength=4)
        assert loads.max() <= state.load_cap

    def test_rejects_bad_inputs(self, stream):
        clustering = streaming_clustering(stream, max(1, stream.num_edges // 8))
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


class TestGameVectorization:
    def test_vectorized_matches_reference_scorer(self, stream):
        clustering = streaming_clustering(stream, max(1, stream.num_edges // 16))
        cg = build_cluster_graph(stream, clustering)
        for seed in range(3):
            ref = best_response_dynamics(cg, 8, GameConfig(seed=seed))
            vec = ClusterPartitioningGame(cg, 8, GameConfig(seed=seed)).run()
            assert np.array_equal(ref.assignment, vec.assignment)
            assert (ref.rounds, ref.moves) == (vec.rounds, vec.moves)
            assert ref.potential_trace == vec.potential_trace


class TestDistributedChunked:
    def test_nodes_run_chunked_pipeline(self, stream):
        a = distributed_clugp(
            stream, 4, num_nodes=3, seed=5, parallel_nodes=False
        )
        b = distributed_clugp(
            stream, 4, num_nodes=3, seed=5, parallel_nodes=False, chunk_size=211
        )
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
    got = streaming_clustering_chunked(
        s, vmax, enable_splitting=split, chunk_size=chunk_size
    )
    assert_clustering_equal(reference, got)
