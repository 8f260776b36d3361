"""Tests for pass 3 — partition transformation (Algorithm 1)."""

import numpy as np
import pytest
from conftest import BACKENDS, kernel_backend
from hypothesis import given, settings, strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.core.clustering import ClusteringResult, streaming_clustering
from repro.core.cluster_graph import build_cluster_graph
from repro.core.game import ClusterPartitioningGame
from repro.core.transform import TransformState, transform_partitions


def pipeline_inputs(edges_or_graph, k, vmax=None):
    if isinstance(edges_or_graph, list):
        g = DiGraph.from_edges(edges_or_graph)
    else:
        g = edges_or_graph
    s = EdgeStream.from_graph(g)
    vmax = vmax or max(1, s.num_edges // k)
    clustering = streaming_clustering(s, vmax, enable_splitting=True)
    cg = build_cluster_graph(s, clustering)
    game = ClusterPartitioningGame(cg, k)
    assignment = game.run().assignment
    return s, clustering, assignment


class TestRules:
    def test_agreement_edges_follow_partition(self):
        s, clustering, cluster_partition = pipeline_inputs(
            [(0, 1), (1, 2), (2, 0)], k=2, vmax=100
        )
        edge_partition, stats = transform_partitions(
            s, clustering, cluster_partition, 2, imbalance_factor=2.0
        )
        # triangle merges into one cluster -> all edges agree
        assert stats.agreement == 3
        assert np.unique(edge_partition).size == 1

    def test_degree_rule_cuts_high_degree_endpoint(self):
        # hub 0 in cluster A, leaves in cluster B; the edge between them
        # should land in the leaf's partition (cut the hub)
        g = DiGraph.from_edges(
            [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 4), (0, 4)]
        )
        s = EdgeStream.from_graph(g)
        clustering = streaming_clustering(s, max_volume=3, enable_splitting=False)
        cu, c4 = clustering.cluster_of[0], clustering.cluster_of[4]
        if cu != c4:  # only meaningful when they ended up separated
            m = clustering.num_clusters
            cluster_partition = np.arange(m) % 2
            if cluster_partition[cu] != cluster_partition[c4]:
                edge_partition, stats = transform_partitions(
                    s, clustering, cluster_partition, 2, imbalance_factor=4.0
                )
                # last edge is (0, 4): deg(0) > deg(4) -> goes to 4's side
                assert edge_partition[-1] == cluster_partition[c4]

    def test_load_cap_strictly_enforced(self):
        graph = web_crawl_graph(600, avg_out_degree=10, seed=1)
        for tau in (1.0, 1.02, 1.1):
            s, clustering, cluster_partition = pipeline_inputs(graph, k=8)
            edge_partition, stats = transform_partitions(
                s, clustering, cluster_partition, 8, imbalance_factor=tau
            )
            loads = np.bincount(edge_partition, minlength=8)
            assert loads.max() <= stats.load_cap
            assert loads.sum() == s.num_edges

    def test_tau_one_gives_perfect_balance(self):
        graph = web_crawl_graph(600, avg_out_degree=10, seed=2)
        s, clustering, cluster_partition = pipeline_inputs(graph, k=4)
        edge_partition, _ = transform_partitions(
            s, clustering, cluster_partition, 4, imbalance_factor=1.0
        )
        loads = np.bincount(edge_partition, minlength=4)
        assert loads.max() - loads.min() <= int(np.ceil(s.num_edges / 4))

    def test_stats_cover_all_edges(self):
        graph = web_crawl_graph(500, avg_out_degree=8, seed=3)
        s, clustering, cluster_partition = pipeline_inputs(graph, k=4)
        _, stats = transform_partitions(
            s, clustering, cluster_partition, 4, imbalance_factor=1.05
        )
        assert stats.total() == s.num_edges

    def test_mirror_rule_used_when_divided(self):
        graph = web_crawl_graph(800, avg_out_degree=10, host_size=20, seed=4)
        s = EdgeStream.from_graph(graph)
        clustering = streaming_clustering(s, max_volume=s.num_edges // 32, enable_splitting=True)
        if clustering.splits == 0:
            pytest.skip("no splits triggered on this instance")
        cg = build_cluster_graph(s, clustering)
        cluster_partition = ClusterPartitioningGame(cg, 8).run().assignment
        _, stats = transform_partitions(
            s, clustering, cluster_partition, 8, imbalance_factor=1.2
        )
        assert stats.mirror_reuse > 0


def _singletons(stream: EdgeStream) -> ClusteringResult:
    """Every vertex its own undivided cluster: the cluster -> partition
    map is then the vertex -> partition map."""
    n = stream.num_vertices
    degree = np.bincount(np.concatenate([stream.src, stream.dst]), minlength=n)
    return ClusteringResult(
        cluster_of=np.arange(n), degree=degree, volume=degree.copy(),
        divided=np.zeros(n, dtype=bool), num_clusters=n,
        max_volume=stream.num_edges,
    )


#: id -> (k, tau, edges, vertex partition, the last edge's partition).
#: Vertices 0 and 1 live on partition 0, which the leading (0, 1) edges
#: fill to the cap; each edge of 0 or 1 to a vertex elsewhere then goes
#: to that vertex's partition and leaves a replica there.  The last (0, 1)
#: finds both endpoint partitions full.  The rotating pointer would send
#: it to partition 1, the least loaded and lowest underfull one; the spill
#: takes the underfull partition that holds replicas of both endpoints,
#: else of one, least loaded first, ties to the lower index.  At k = 70
#: the replica summary keeps the 64 // 7 = 9 newest partitions a vertex
#: went to, so the tenth-newest is forgotten.
SPILLS = {
    # cap 3: partition 2 holds 0 and 1 (load 2), partition 1 nothing
    "both-endpoints": (3, 1.5, [(0, 1)] * 3 + [(0, 2), (1, 2), (0, 1)], [0, 0, 2], 2),
    # cap 3: partition 2 holds 0 only
    "one-endpoint": (3, 1.5, [(0, 1)] * 3 + [(0, 2), (0, 1)], [0, 0, 2], 2),
    # cap 3: partitions 2 and 3 each hold 0 at load 1; the lower wins
    "tie": (4, 2.0, [(0, 1)] * 3 + [(0, 2), (0, 3), (0, 1)], [0, 0, 2, 3], 2),
    # cap 4: partition 3 holds both (load 2), partition 2 only 0 (load 1)
    "both-before-either": (
        4, 2.0, [(0, 1)] * 4 + [(0, 2), (0, 3), (1, 3), (0, 1)], [0, 0, 2, 3], 3,
    ),
    # cap 3: partition 65 holds 0 and 1 (load 2), partitions 1-64 nothing
    "both-endpoints-k70": (70, 35.0, [(0, 1)] * 3 + [(0, 2), (1, 2), (0, 1)], [0, 0, 65], 65),
    # cap 3: 0 went to partitions 60, 61, ..., 69 in turn (load 1 each);
    # 60 is forgotten, so the lowest index it remembers is 61
    "oldest-forgotten-k70": (
        70, 15.0, [(0, 1)] * 3 + [(0, x) for x in range(2, 12)] + [(0, 1)],
        [0, 0] + list(range(60, 70)), 61,
    ),
}


class TestSpill:
    """Algorithm 1's "any underfull partition", taken where the replicas are."""

    @pytest.mark.parametrize("case", SPILLS)
    def test_reference_loop(self, case):
        k, tau, edges, vp, expected = SPILLS[case]
        s = EdgeStream(*zip(*edges), num_vertices=len(vp))
        out, stats = transform_partitions(s, _singletons(s), np.array(vp), k, tau)
        assert out[-1] == expected
        assert np.bincount(out, minlength=k).max() <= stats.load_cap

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_size", [1, 2, 64])
    @pytest.mark.parametrize("case", SPILLS)
    def test_kernel_tiers(self, case, chunk_size, backend):
        k, tau, edges, vp, expected = SPILLS[case]
        s = EdgeStream(*zip(*edges), num_vertices=len(vp))
        with kernel_backend(backend):
            state = TransformState(
                _singletons(s), np.array(vp), k, num_edges=s.num_edges,
                num_vertices=s.num_vertices, imbalance_factor=tau,
            )
        out = np.empty(s.num_edges, dtype=np.int64)
        state.run(s, chunk_size, out)
        reference, stats = transform_partitions(s, _singletons(s), np.array(vp), k, tau)
        assert out[-1] == expected
        assert np.array_equal(out, reference)
        assert state.stats.balance_spill == stats.balance_spill


class TestValidation:
    def test_rejects_bad_tau(self):
        s, clustering, cluster_partition = pipeline_inputs([(0, 1)], k=2, vmax=10)
        with pytest.raises(ValueError, match="imbalance_factor"):
            transform_partitions(s, clustering, cluster_partition, 2, 0.5)

    def test_rejects_wrong_mapping_size(self):
        s, clustering, _ = pipeline_inputs([(0, 1), (1, 2)], k=2, vmax=10)
        with pytest.raises(ValueError, match="clusters"):
            transform_partitions(s, clustering, np.array([0, 1, 0, 1, 0]), 2, 1.0)

    def test_rejects_out_of_range_partition_ids(self):
        s, clustering, cluster_partition = pipeline_inputs([(0, 1)], k=2, vmax=10)
        bad = np.full_like(cluster_partition, 9)
        with pytest.raises(ValueError, match="out of range"):
            transform_partitions(s, clustering, bad, 2, 1.0)


@settings(max_examples=20, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=2, max_size=100
    ),
    k=st.integers(1, 6),
    tau=st.floats(1.0, 1.5),
)
def test_property_transform_invariants(edges, k, tau):
    s = EdgeStream.from_graph(DiGraph.from_edges(edges))
    clustering = streaming_clustering(s, max_volume=max(1, s.num_edges // k), enable_splitting=True)
    cg = build_cluster_graph(s, clustering)
    cluster_partition = ClusterPartitioningGame(cg, k).run().assignment
    edge_partition, stats = transform_partitions(
        s, clustering, cluster_partition, k, imbalance_factor=tau
    )
    # every edge assigned exactly once to a valid partition
    assert edge_partition.shape == (s.num_edges,)
    assert edge_partition.min() >= 0 and edge_partition.max() < k
    # the tau cap holds strictly
    loads = np.bincount(edge_partition, minlength=k)
    assert loads.max() <= stats.load_cap
    # rule counters account for every edge
    assert stats.total() == s.num_edges


class TestExternalMapping:
    """TransformState with an externally supplied vertex->partition map
    (the distributed merged mode's broadcast decision)."""

    def test_matches_internal_join(self):
        g = web_crawl_graph(400, avg_out_degree=6, host_size=20, seed=2)
        s, clustering, cluster_partition = pipeline_inputs(g, k=4)
        from repro.core.transform import TransformState

        joined = TransformState(
            clustering, cluster_partition, 4,
            num_edges=s.num_edges, num_vertices=s.num_vertices,
            imbalance_factor=1.05,
        )
        vp = np.full(s.num_vertices, -1, dtype=np.int64)
        seen = clustering.active_mask()
        vp[seen] = cluster_partition[clustering.cluster_of[seen]]
        external = TransformState(
            clustering, None, 4,
            num_edges=s.num_edges, num_vertices=s.num_vertices,
            imbalance_factor=1.05, vertex_partition=vp,
        )
        a = joined.ingest_pair(s.src, s.dst)
        b = external.ingest_pair(s.src, s.dst)
        assert np.array_equal(a, b)

    def test_requires_exactly_one_mapping(self):
        s, clustering, cluster_partition = pipeline_inputs([(0, 1), (1, 2)], k=2)
        from repro.core.transform import TransformState

        vp = np.zeros(s.num_vertices, dtype=np.int64)
        with pytest.raises(ValueError, match="exactly one"):
            TransformState(
                clustering, cluster_partition, 2,
                num_edges=s.num_edges, num_vertices=s.num_vertices,
                vertex_partition=vp,
            )
        with pytest.raises(ValueError, match="exactly one"):
            TransformState(
                clustering, None, 2,
                num_edges=s.num_edges, num_vertices=s.num_vertices,
            )

    def test_validates_external_mapping(self):
        s, clustering, _ = pipeline_inputs([(0, 1), (1, 2)], k=2)
        from repro.core.transform import TransformState

        with pytest.raises(ValueError, match="vertex_partition must map"):
            TransformState(
                clustering, None, 2, num_edges=s.num_edges,
                num_vertices=s.num_vertices,
                vertex_partition=np.zeros(1, dtype=np.int64),
            )
        with pytest.raises(ValueError, match="out of range"):
            TransformState(
                clustering, None, 2, num_edges=s.num_edges,
                num_vertices=s.num_vertices,
                vertex_partition=np.full(s.num_vertices, 5, dtype=np.int64),
            )


class TestPerPartitionCaps:
    """load_caps: the distributed balance quota exchange's enforcement."""

    def test_uniform_caps_match_default(self):
        g = web_crawl_graph(400, avg_out_degree=6, host_size=20, seed=3)
        s, clustering, cluster_partition = pipeline_inputs(g, k=4)
        from repro.core.transform import TransformState

        import math
        cap = max(1, math.ceil(1.05 * s.num_edges / 4))
        default = TransformState(
            clustering, cluster_partition, 4,
            num_edges=s.num_edges, num_vertices=s.num_vertices,
            imbalance_factor=1.05,
        )
        explicit = TransformState(
            clustering, cluster_partition, 4,
            num_edges=s.num_edges, num_vertices=s.num_vertices,
            imbalance_factor=1.05,
            load_caps=np.full(4, cap, dtype=np.int64),
        )
        a = default.ingest_pair(s.src, s.dst)
        b = explicit.ingest_pair(s.src, s.dst)
        assert np.array_equal(a, b)
        assert default.stats.balance_spill == explicit.stats.balance_spill

    def test_unbounded_caps_never_spill(self):
        g = web_crawl_graph(400, avg_out_degree=6, host_size=20, seed=3)
        s, clustering, cluster_partition = pipeline_inputs(g, k=4)
        from repro.core.transform import TransformState

        state = TransformState(
            clustering, cluster_partition, 4,
            num_edges=s.num_edges, num_vertices=s.num_vertices,
            load_caps=np.full(4, s.num_edges, dtype=np.int64),
        )
        state.ingest_pair(s.src, s.dst)
        assert state.stats.balance_spill == 0
        assert int(state.loads.sum()) == s.num_edges

    def test_asymmetric_caps_enforced(self):
        g = web_crawl_graph(400, avg_out_degree=6, host_size=20, seed=4)
        s, clustering, cluster_partition = pipeline_inputs(g, k=4)
        from repro.core.transform import TransformState

        caps = np.array([s.num_edges, s.num_edges, 10, 0], dtype=np.int64)
        state = TransformState(
            clustering, cluster_partition, 4,
            num_edges=s.num_edges, num_vertices=s.num_vertices,
            load_caps=caps,
        )
        parts = [state.ingest_pair(u, v) for u, v in s.batches(64)]
        out = np.concatenate(parts)
        loads = np.bincount(out, minlength=4)
        assert (loads <= caps).all()
        assert int(loads.sum()) == s.num_edges

    def test_validates_caps(self):
        s, clustering, cluster_partition = pipeline_inputs([(0, 1), (1, 2)], k=2)
        from repro.core.transform import TransformState

        with pytest.raises(ValueError, match="one entry per partition"):
            TransformState(
                clustering, cluster_partition, 2, num_edges=s.num_edges,
                num_vertices=s.num_vertices,
                load_caps=np.array([5], dtype=np.int64),
            )
        with pytest.raises(ValueError, match="cannot hold"):
            TransformState(
                clustering, cluster_partition, 2, num_edges=s.num_edges,
                num_vertices=s.num_vertices,
                load_caps=np.zeros(2, dtype=np.int64),
            )


class TestInitialLoads:
    """initial_loads seeding — the service's delta-application contract."""

    def _stream(self, seed=4):
        g = web_crawl_graph(400, avg_out_degree=6, host_size=20, seed=seed)
        return pipeline_inputs(g, k=4)

    def test_seeded_state_equals_prefix_then_rest(self):
        from repro.core.transform import TransformState

        s, clustering, cluster_partition = self._stream()
        k = 4
        vp = np.full(s.num_vertices, -1, dtype=np.int64)
        seen = clustering.active_mask()
        vp[seen] = cluster_partition[clustering.cluster_of[seen]]
        caps = np.full(k, s.num_edges, dtype=np.int64)
        whole = TransformState(
            clustering, None, k, num_edges=s.num_edges,
            num_vertices=s.num_vertices, vertex_partition=vp, load_caps=caps,
        )
        half = s.num_edges // 2
        first = whole.ingest_pair(s.src[:half], s.dst[:half])
        seeded = TransformState(
            clustering, None, k, num_edges=s.num_edges - half,
            num_vertices=s.num_vertices, vertex_partition=vp, load_caps=caps,
            initial_loads=np.bincount(first, minlength=k),
        )
        rest_whole = whole.ingest_pair(s.src[half:], s.dst[half:])
        rest_seeded = seeded.ingest_pair(s.src[half:], s.dst[half:])
        assert np.array_equal(rest_whole, rest_seeded)
        assert np.array_equal(whole.loads, seeded.loads)

    def test_initial_loads_validation(self):
        from repro.core.transform import TransformState

        s, clustering, cluster_partition = pipeline_inputs([(0, 1), (1, 2)], k=2)
        with pytest.raises(ValueError, match="one entry per partition"):
            TransformState(
                clustering, cluster_partition, 2, num_edges=s.num_edges,
                num_vertices=s.num_vertices,
                initial_loads=np.zeros(3, dtype=np.int64),
            )
        with pytest.raises(ValueError, match="non-negative"):
            TransformState(
                clustering, cluster_partition, 2, num_edges=s.num_edges,
                num_vertices=s.num_vertices,
                initial_loads=np.array([-1, 0], dtype=np.int64),
            )
        # the uniform cap must hold the stream on top of the seed
        with pytest.raises(ValueError, match="already placed"):
            TransformState(
                clustering, cluster_partition, 2, num_edges=s.num_edges,
                num_vertices=s.num_vertices,
                initial_loads=np.array([100, 100], dtype=np.int64),
            )
        # explicit caps are validated against seed + stream too
        with pytest.raises(ValueError, match="cannot hold"):
            TransformState(
                clustering, cluster_partition, 2, num_edges=s.num_edges,
                num_vertices=s.num_vertices,
                load_caps=np.array([2, 1], dtype=np.int64),
                initial_loads=np.array([1, 1], dtype=np.int64),
            )

    def test_seeded_loads_count_toward_caps(self):
        from repro.core.transform import TransformState

        s, clustering, cluster_partition = self._stream(seed=6)
        k = 4
        seed_loads = np.array([7, 0, 3, 1], dtype=np.int64)
        caps = np.full(k, s.num_edges + 11, dtype=np.int64)
        state = TransformState(
            clustering, cluster_partition, k, num_edges=s.num_edges,
            num_vertices=s.num_vertices, load_caps=caps,
            initial_loads=seed_loads,
        )
        state.ingest_pair(s.src, s.dst)
        assert int(state.loads.sum()) == s.num_edges + int(seed_loads.sum())
        assert (state.loads <= caps).all()
