"""Tests for pass 1 — streaming clustering (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.generators import star_graph, web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.core.clustering import ClusteringState, streaming_clustering


def stream_of(edges, n=None):
    g = DiGraph.from_edges(edges) if n is None else DiGraph.from_edges(edges)
    return EdgeStream.from_graph(g)


class TestAllocation:
    def test_every_seen_vertex_gets_cluster(self):
        s = stream_of([(0, 1), (2, 3)])
        result = streaming_clustering(s, max_volume=100, enable_splitting=True)
        assert (result.cluster_of[[0, 1, 2, 3]] >= 0).all()

    def test_unseen_vertex_stays_unclustered(self):
        g = DiGraph([0], [1], num_vertices=5)
        result = streaming_clustering(
            EdgeStream.from_graph(g), max_volume=10, enable_splitting=True
        )
        assert result.cluster_of[4] == -1

    def test_degrees_counted_over_stream(self):
        s = stream_of([(0, 1), (0, 2), (1, 2)])
        result = streaming_clustering(s, max_volume=100, enable_splitting=True)
        assert result.degree.tolist() == [2, 2, 2]

    def test_allocation_counter(self):
        # one allocation per seen vertex: every one of them holds a cluster
        s = stream_of([(0, 1), (2, 3), (0, 2)])
        result = streaming_clustering(s, max_volume=100, enable_splitting=True)
        assert int((result.cluster_of >= 0).sum()) == 4


class TestMigration:
    def test_connected_pair_merges(self):
        s = stream_of([(0, 1)])
        result = streaming_clustering(s, max_volume=100, enable_splitting=True)
        assert result.cluster_of[0] == result.cluster_of[1]

    def test_triangle_single_cluster(self):
        s = stream_of([(0, 1), (1, 2), (2, 0)])
        result = streaming_clustering(s, max_volume=100, enable_splitting=True)
        assert np.unique(result.cluster_of).size == 1

    def test_communities_stay_separate(self):
        # two triangles joined by nothing
        s = stream_of([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        result = streaming_clustering(s, max_volume=100, enable_splitting=True)
        assert result.cluster_of[0] == result.cluster_of[1] == result.cluster_of[2]
        assert result.cluster_of[3] == result.cluster_of[4] == result.cluster_of[5]
        assert result.cluster_of[0] != result.cluster_of[3]

    def test_migration_blocked_at_capacity(self):
        # vmax=2: after (0,1) merge the cluster is at volume 2 == vmax, so
        # vertex 2 cannot migrate in on edge (1,2)
        s = stream_of([(0, 1), (1, 2)])
        result = streaming_clustering(s, max_volume=2, enable_splitting=False)
        assert result.cluster_of[2] != result.cluster_of[0]

    def test_smaller_volume_cluster_joins_bigger(self):
        # build cluster {0,1,2} (volume 6 after 3 edges), then a fresh pair
        # (3,4); edge (3,0) should pull 3 into the bigger cluster
        s = stream_of([(0, 1), (1, 2), (2, 0), (3, 4), (3, 0)])
        result = streaming_clustering(s, max_volume=100, enable_splitting=True)
        assert result.cluster_of[3] == result.cluster_of[0]


class TestSplitting:
    def test_no_split_below_capacity(self):
        s = stream_of([(0, 1), (1, 2)])
        result = streaming_clustering(s, max_volume=1000, enable_splitting=True)
        assert result.splits == 0
        assert not result.divided.any()

    def test_split_marks_divided_and_mirror(self):
        graph = web_crawl_graph(600, avg_out_degree=10, host_size=30, seed=2)
        s = EdgeStream.from_graph(graph)
        result = streaming_clustering(s, max_volume=s.num_edges // 64, enable_splitting=True)
        assert result.splits > 0
        # a vertex splits only once its degree exceeds 1, and each split
        # leaves exactly one mirror: one divided vertex per split
        assert int(result.divided.sum()) == result.splits
        assert (result.degree[result.divided] > 1).all()
        assert (result.cluster_of[result.divided] >= 0).all()

    def test_split_at_most_once_per_vertex(self):
        graph = web_crawl_graph(600, avg_out_degree=10, host_size=30, seed=2)
        s = EdgeStream.from_graph(graph)
        result = streaming_clustering(s, max_volume=s.num_edges // 64, enable_splitting=True)
        assert result.splits == int(result.divided.sum())

    def test_disabled_splitting_is_holl(self):
        graph = web_crawl_graph(400, avg_out_degree=8, seed=3)
        s = EdgeStream.from_graph(graph)
        result = streaming_clustering(s, s.num_edges // 32, enable_splitting=False)
        assert result.splits == 0
        assert not result.divided.any()

    def test_clugp_equals_holl_when_no_split_triggers(self):
        # Section IV-A: "if the splitting operation is not triggered, CLUGP
        # degenerates into Holl"
        s = stream_of([(0, 1), (1, 2), (2, 3), (3, 0)])
        with_split = streaming_clustering(s, max_volume=1000, enable_splitting=True)
        without = streaming_clustering(s, max_volume=1000, enable_splitting=False)
        assert np.array_equal(with_split.cluster_of, without.cluster_of)

    def test_star_burst_splits_hub_when_degree_fits(self):
        # hub degree 20 < vmax 30, but the hub cluster fills from leaf mass
        g = star_graph(20)
        extra = [(i, i + 1) for i in range(1, 20)]  # leaf chain adds volume
        edges = list(zip(g.src.tolist(), g.dst.tolist())) + extra
        s = stream_of(edges)
        result = streaming_clustering(s, max_volume=30, enable_splitting=True)
        # the clustering must terminate and keep ids consistent
        assert (result.cluster_of[result.degree > 0] >= 0).all()


class TestVolumeAccounting:
    def test_volume_equals_member_degree_sum(self):
        # every volume transfer (allocation +1 per endpoint, migration and
        # split +/- deg) keeps vol(c) == sum of current member degrees,
        # so the final table must match an independent recomputation exactly
        graph = web_crawl_graph(500, avg_out_degree=8, seed=4)
        s = EdgeStream.from_graph(graph)
        result = streaming_clustering(s, max_volume=s.num_edges // 16, enable_splitting=True)
        recomputed = np.zeros(result.num_clusters, dtype=np.int64)
        for v, c in enumerate(result.cluster_of.tolist()):
            if c >= 0:
                recomputed[c] += result.degree[v]
        assert np.array_equal(recomputed, result.volume)
        assert recomputed.sum() == 2 * s.num_edges

    def test_cluster_sizes_match_members(self):
        s = stream_of([(0, 1), (1, 2), (3, 4)])
        result = streaming_clustering(s, max_volume=100, enable_splitting=True)
        sizes = result.cluster_sizes()
        assert sizes.sum() == 5
        members = np.bincount(result.cluster_of[result.cluster_of >= 0])
        assert np.array_equal(sizes, members)


class TestCompaction:
    def test_cluster_ids_dense(self):
        graph = web_crawl_graph(500, avg_out_degree=8, seed=5)
        s = EdgeStream.from_graph(graph)
        result = streaming_clustering(s, max_volume=s.num_edges // 32, enable_splitting=True)
        active = result.cluster_of[result.cluster_of >= 0]
        assert active.max() == result.num_clusters - 1
        assert np.unique(active).size == result.num_clusters

    def test_volume_indexed_by_compact_id(self):
        graph = web_crawl_graph(500, avg_out_degree=8, seed=5)
        s = EdgeStream.from_graph(graph)
        result = streaming_clustering(s, max_volume=s.num_edges // 32, enable_splitting=True)
        assert result.volume.shape == (result.num_clusters,)


class TestValidation:
    def test_rejects_bad_vmax(self):
        s = stream_of([(0, 1)])
        with pytest.raises(ValueError):
            streaming_clustering(s, max_volume=0, enable_splitting=True)

    def test_self_loops_handled(self):
        s = stream_of([(0, 0), (0, 1)])
        result = streaming_clustering(s, max_volume=10, enable_splitting=True)
        assert result.degree[0] == 3  # self-loop counts twice

    def test_empty_stream(self):
        s = EdgeStream([], [], num_vertices=3)
        result = streaming_clustering(s, max_volume=5, enable_splitting=True)
        assert result.num_clusters == 0


@settings(max_examples=20, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 25), st.integers(0, 25)), min_size=1, max_size=120
    ),
    vmax=st.integers(1, 40),
    split=st.booleans(),
)
def test_property_clustering_invariants(edges, vmax, split):
    s = stream_of(edges)
    result = streaming_clustering(s, max_volume=vmax, enable_splitting=split)
    seen = np.zeros(s.num_vertices, dtype=bool)
    seen[s.src] = True
    seen[s.dst] = True
    # every seen vertex clustered, no unseen vertex clustered
    assert ((result.cluster_of >= 0) == seen).all()
    # degrees match the stream
    assert np.array_equal(result.degree, s.degrees())
    # compact ids and consistent volume table
    if result.num_clusters:
        active = result.cluster_of[result.cluster_of >= 0]
        assert active.max() < result.num_clusters
    assert result.volume.sum() == 2 * s.num_edges
    # only seen vertices split, each at most once
    assert result.splits == int(result.divided.sum())
    assert (result.cluster_of[result.divided] >= 0).all()


class TestRawClusterStability:
    """raw_clusters()/raw_ids — the service's cross-snapshot correlation."""

    def test_raw_clusters_before_and_after_ingest(self):
        state = ClusteringState(6, max_volume=8, enable_splitting=True)
        verts = np.arange(6)
        assert (state.raw_clusters(verts) == -1).all()
        state.ingest_pair(np.array([0, 1]), np.array([1, 2]))
        raw = state.raw_clusters(verts)
        assert (raw[:3] >= 0).all()
        assert (raw[3:] == -1).all()

    def test_raw_ids_map_compact_to_raw(self):
        state = ClusteringState(8, max_volume=4, enable_splitting=True)
        state.ingest_pair(
            np.array([0, 1, 4, 5, 0]), np.array([1, 2, 5, 6, 4])
        )
        snap = state.snapshot()
        assert snap.raw_ids is not None
        assert snap.raw_ids.shape == (snap.num_clusters,)
        # per-vertex raw id agrees with raw_ids[compact id]
        raw = state.raw_clusters(np.arange(8))
        seen = snap.cluster_of >= 0
        assert np.array_equal(
            raw[seen], snap.raw_ids[snap.cluster_of[seen]]
        )

    def test_per_edge_oracle_records_the_same_raw_ids(self):
        # with mirrors in play: the oracle's dict branch of _compact used
        # to rebind raw_ids inside its mirror loop
        rng = np.random.default_rng(0)
        stream = EdgeStream(rng.integers(0, 50, 400), rng.integers(0, 50, 400), 50)
        oracle = streaming_clustering(stream, max_volume=40, enable_splitting=True)
        state = ClusteringState(50, max_volume=40, enable_splitting=True)
        state.ingest_pair(stream.src, stream.dst)
        assert oracle.splits > 0
        assert isinstance(oracle.raw_ids, np.ndarray)
        assert np.array_equal(oracle.raw_ids, state.live().raw_ids)
        assert np.array_equal(oracle.raw_ids, state.finalize().raw_ids)

    def test_raw_ids_survive_further_ingestion(self):
        rng = np.random.default_rng(2)
        u = rng.integers(0, 40, size=200)
        v = rng.integers(0, 40, size=200)
        state = ClusteringState(40, max_volume=10, enable_splitting=True)
        state.ingest_pair(u[:100], v[:100])
        snap1 = state.snapshot()
        state.ingest_pair(u[100:], v[100:])
        snap2 = state.snapshot()
        # a raw id present in both snapshots refers to the same live
        # cluster: its volume evolved but it was never renumbered
        common = np.intersect1d(snap1.raw_ids, snap2.raw_ids)
        assert common.size > 0
        assert state.num_raw >= max(int(snap2.raw_ids.max()) + 1, 1)
