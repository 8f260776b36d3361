"""Property tests for the distributed merge protocol.

Covers the three exactness/quality claims of DESIGN.md §6:

* the coordinator's merged cluster graph — one ``ClusterGraph.merge`` of
  the node-built round-2 contributions — equals the oracle built from
  the full stream and the assembled global clustering (cut attribution
  is exact, never modeled), and every shard edge is counted exactly once
  across the contributions;
* the merged replication factor does not exceed that of per-shard
  pipelines concatenated (``conftest.per_shard_rf``) on
  community-structured streams (power-law web crawls, natural and random
  order) — the quality cliff the merge removes;
* both payloads stay summaries: no edge array in either, their wire size
  is the measured sum of the shipped arrays, and an unsealed or corrupt
  one is refused.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import per_shard_rf
from repro.config import ClugpConfig
from repro.core.cluster_graph import ClusterGraph, build_cluster_graph
from repro.core.clustering import ClusteringResult
from repro.core.distributed import (
    NodeStages,
    _boundary_mask,
    _resolve_boundaries,
    _shard_ranges,
    distributed_clugp,
)
from repro.core.partitioner import ClugpPartitioner, graph_contribution
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream


def _run_two_rounds(stream, num_nodes, k, seed):
    """Serial rounds 1 + 2 on in-process nodes, the way ``_run_merged``
    drives them: ``(ranges, boundary, nodes, summaries, resolution,
    contributions)``."""
    ranges = _shard_ranges(stream.num_edges, num_nodes)
    boundary = _boundary_mask(stream, ranges)
    shards = [
        EdgeStream(stream.src[a:b], stream.dst[a:b], stream.num_vertices)
        for a, b in ranges
    ]
    nodes = [NodeStages(node) for node in range(num_nodes)]
    msg = {
        "num_partitions": k, "seed": seed, "config": ClugpConfig(num_partitions=k),
        "boundary": boundary, "chunk_size": 1 << 16,
    }
    summaries = [node.summary(shard, msg) for node, shard in zip(nodes, shards)]
    resolution = _resolve_boundaries(summaries)
    contributions = [
        node.attribute(
            shard,
            {
                "offset": int(resolution.offsets[i]),
                "num_global_clusters": resolution.num_global_clusters,
                "boundary_vertices": resolution.boundary_vertices,
                "boundary_global_cluster": resolution.boundary_global_cluster,
            },
        )
        for i, (node, shard) in enumerate(zip(nodes, shards))
    ]
    return ranges, boundary, nodes, summaries, resolution, contributions


def _merge(resolution, contributions):
    m = resolution.num_global_clusters
    identity = np.arange(m, dtype=np.int64)
    return ClusterGraph.merge(
        contributions, [identity] * len(contributions),
        num_clusters=m,
    )


def _reference_boundary_mask(stream, ranges):
    """The pre-PR-15 implementation: per-shard seen-sets, integer counts."""
    counts = np.zeros(stream.num_vertices, dtype=np.int64)
    for start, stop in ranges:
        seen = np.zeros(stream.num_vertices, dtype=bool)
        seen[stream.src[start:stop]] = True
        seen[stream.dst[start:stop]] = True
        counts += seen
    return counts >= 2


class TestBoundaryMask:
    @pytest.mark.parametrize("num_nodes", [1, 2, 3, 5, 8])
    def test_equals_reference_on_even_shards(self, crawl_stream, num_nodes):
        ranges = _shard_ranges(crawl_stream.num_edges, num_nodes)
        assert np.array_equal(
            _boundary_mask(crawl_stream, ranges),
            _reference_boundary_mask(crawl_stream, ranges),
        )

    def test_equals_reference_with_empty_and_single_edge_shards(self, crawl_stream):
        m = crawl_stream.num_edges
        for cuts in ([0, 0, 1, 2, m], [0, m, m], [0, 1, m - 1, m - 1, m], [0, m]):
            ranges = list(zip(cuts[:-1], cuts[1:]))
            assert np.array_equal(
                _boundary_mask(crawl_stream, ranges),
                _reference_boundary_mask(crawl_stream, ranges),
            ), cuts

    def test_unseen_vertices_are_never_boundary(self):
        stream = EdgeStream([0, 1, 0, 2], [1, 0, 2, 0], 6)  # 3..5 never appear
        mask = _boundary_mask(stream, [(0, 2), (2, 4)])
        assert mask.tolist() == [True, False, False, False, False, False]


class TestMergedGraphExactness:
    @pytest.mark.parametrize("num_nodes", [1, 2, 3, 5])
    def test_merged_graph_equals_full_stream_oracle(self, crawl_stream, num_nodes):
        """One ClusterGraph.merge of the round-2 contributions ==
        build_cluster_graph over the full stream under the assembled
        global clustering, array for array."""
        k = 8
        _, _, nodes, _, resolution, contributions = _run_two_rounds(
            crawl_stream, num_nodes, k, seed=0
        )
        merged = _merge(resolution, contributions)

        # assemble the global vertex->cluster map the protocol implies
        n = crawl_stream.num_vertices
        global_of = np.full(n, -1, dtype=np.int64)
        for node, stages in enumerate(nodes):
            seen = stages.clustering.active_mask()
            global_of[seen] = stages.clustering.cluster_of[seen] + resolution.offsets[node]
        global_of[resolution.boundary_vertices] = resolution.boundary_global_cluster
        m = resolution.num_global_clusters
        oracle_clustering = ClusteringResult(
            cluster_of=global_of,
            degree=crawl_stream.degrees(),
            volume=np.zeros(m, dtype=np.int64),
            divided=np.zeros(n, dtype=bool),
            num_clusters=m,
            max_volume=1,
        )
        oracle = build_cluster_graph(crawl_stream, oracle_clustering)

        assert merged.num_clusters == m
        assert np.array_equal(merged.internal, oracle.internal)
        assert np.array_equal(merged.indptr, oracle.indptr)
        assert np.array_equal(merged.indices, oracle.indices)
        assert np.array_equal(merged.weights, oracle.weights)
        assert np.array_equal(merged.in_indptr, oracle.in_indptr)
        assert np.array_equal(merged.in_indices, oracle.in_indices)
        assert np.array_equal(merged.in_weights, oracle.in_weights)

    def test_merged_graph_accounts_every_edge(self, crawl_stream):
        ranges, _, _, _, resolution, contributions = _run_two_rounds(
            crawl_stream, 4, 8, seed=1
        )
        # each shard edge exactly once, in its own node's contribution
        for (start, stop), c in zip(ranges, contributions):
            assert int(c.internal.sum()) + int(c.weights.sum()) == stop - start
        merged = _merge(resolution, contributions)
        assert (
            merged.total_internal() + merged.total_cut() == crawl_stream.num_edges
        )
        assert merged.edge_count_check(crawl_stream.num_edges)

    def test_node_map_agrees_with_resolution(self, crawl_stream):
        """Every node's vertex -> global-cluster map sends a boundary
        vertex to the resolved cluster and an interior one into the
        node's own id range."""
        _, boundary, nodes, summaries, resolution, _ = _run_two_rounds(
            crawl_stream, 3, 8, seed=0
        )
        resolved = dict(zip(
            resolution.boundary_vertices.tolist(),
            resolution.boundary_global_cluster.tolist(),
        ))
        assert set(resolved) == set(np.flatnonzero(boundary).tolist())
        for i, (stages, s) in enumerate(zip(nodes, summaries)):
            seen = np.flatnonzero(stages.clustering.active_mask())
            got = stages.global_cluster_of[seen]
            lo = int(resolution.offsets[i])
            for v, g in zip(seen.tolist(), got.tolist()):
                if v in resolved:
                    assert g == resolved[v]
                else:
                    assert lo <= g < lo + s.num_clusters


class TestClusterSummary:
    def test_shard_local_split_is_exact(self, crawl_stream):
        """The summary counts, and the contribution carries, exactly the
        shard: no edge is double-counted and none escapes."""
        ranges, boundary, _, summaries, _, contributions = _run_two_rounds(
            crawl_stream, 4, 8, seed=0
        )
        for (start, stop), s, c in zip(ranges, summaries, contributions):
            assert s.num_edges == c.num_edges == stop - start
            assert int(c.internal.sum()) + int(c.weights.sum()) == stop - start
            # boundary edges are exactly those touching a boundary vertex
            src = crawl_stream.src[start:stop]
            dst = crawl_stream.dst[start:stop]
            assert s.num_boundary_edges == int((boundary[src] | boundary[dst]).sum())

    def test_wire_bytes_measured(self, crawl_stream):
        _, _, _, summaries, _, contributions = _run_two_rounds(crawl_stream, 2, 8, seed=0)
        s, c = summaries[0], contributions[0]
        assert s.wire_bytes() == sum(
            a.nbytes
            for a in (
                s.volume,
                s.boundary_vertices,
                s.boundary_clusters,
                s.boundary_degrees,
                s.local_assignment,
            )
        )
        assert c.wire_bytes() == sum(
            a.nbytes for a in (c.internal, c.indptr, c.indices, c.weights)
        )
        # summaries are summaries: neither payload grows with the shard's
        # edge count the way an edge list would (8 bytes x 2 endpoints)
        assert s.wire_bytes() + c.wire_bytes() < 16 * s.num_edges / 4

    def test_no_boundary_means_full_local_graph(self, crawl_stream):
        """Without a boundary mask the contribution is the node's full
        cluster graph — the single-node degenerate case."""
        partitioner = ClugpPartitioner(8, seed=0)
        summary = partitioner.cluster_summary(crawl_stream)
        full = partitioner.last_cluster_graph
        assert summary.boundary_vertices.size == 0
        assert summary.num_boundary_edges == 0
        none = np.empty(0, dtype=np.int64)
        contribution, global_of = graph_contribution(
            crawl_stream, partitioner.last_clustering, 0, summary.num_clusters,
            none, none,
        )
        assert np.array_equal(contribution.internal, full.internal)
        assert np.array_equal(contribution.indptr, full.indptr)
        assert np.array_equal(contribution.indices, full.indices)
        assert np.array_equal(contribution.weights, full.weights)
        seen = partitioner.last_clustering.active_mask()
        assert np.array_equal(
            global_of[seen], partitioner.last_clustering.cluster_of[seen]
        )


class TestSealAndValidate:
    @pytest.fixture(scope="class")
    def payloads(self, crawl_stream):
        _, _, _, summaries, _, contributions = _run_two_rounds(crawl_stream, 2, 8, seed=0)
        return summaries[0], contributions[0]

    def test_sealed_payloads_validate(self, payloads):
        summary, contribution = payloads
        assert summary.validate() is None
        assert contribution.validate() is None

    @pytest.mark.parametrize("which", [0, 1])
    def test_unsealed_payload_is_refused(self, payloads, which):
        """A checksum field of 0 used to skip verification."""
        payload = copy.copy(payloads[which])
        payload.checksum = None
        assert "never sealed" in payload.validate()
        payload.checksum = 0  # a corruption that lands on the stamp itself
        assert "checksum mismatch" in payload.validate()

    def test_contribution_schema_violations(self, payloads):
        _, good = payloads

        def broken(**changes):
            c = copy.copy(good)
            for name, value in changes.items():
                setattr(c, name, value)
            return c.seal().validate()

        assert "dtype" in broken(weights=good.weights.astype(np.int32))
        assert "shape" in broken(internal=good.internal[:-1])
        assert "shape" in broken(indices=good.indices[:-1])
        bad_ptr = good.indptr.copy()
        bad_ptr[-1] += 1
        assert "indptr spans" in broken(indptr=bad_ptr)
        dipped = good.indptr.copy()
        dipped[1] = good.indices.size + 1  # ends intact, interior overshoots
        assert "monotone" in broken(indptr=dipped)
        out_of_range = good.indices.copy()
        out_of_range[0] = good.num_clusters
        assert "neighbour ids" in broken(indices=out_of_range)
        heavier = good.weights.copy()
        heavier[0] += 1
        assert "accounts for" in broken(weights=heavier)

    def test_summary_schema_violations(self, payloads):
        good, _ = payloads

        def broken(**changes):
            s = copy.copy(good)
            for name, value in changes.items():
                setattr(s, name, value)
            return s.seal().validate()

        assert "shape" in broken(volume=good.volume[:-1])
        assert "shape" in broken(boundary_degrees=good.boundary_degrees[:-1])
        assert "dtype" in broken(local_assignment=good.local_assignment.astype(np.int32))
        assert "boundary edges" in broken(num_boundary_edges=good.num_edges + 1)
        far = good.boundary_clusters.copy()
        far[0] = good.num_clusters
        assert "boundary ids" in broken(boundary_clusters=far)


class TestStagedApi:
    def test_summary_plus_transform_equals_partition(self, crawl_stream):
        """The staged API composed over one 'shard' (the whole stream)
        reproduces the monolithic pipeline bit for bit."""
        reference = ClugpPartitioner(8, seed=4).partition(crawl_stream)
        staged = ClugpPartitioner(8, seed=4)
        summary = staged.cluster_summary(crawl_stream)
        clustering = staged.last_clustering
        vp = np.full(crawl_stream.num_vertices, -1, dtype=np.int64)
        seen = clustering.active_mask()
        vp[seen] = summary.local_assignment[clustering.cluster_of[seen]]
        edge_partition = staged.transform_with_mapping(crawl_stream, vp)
        assert np.array_equal(edge_partition, reference.edge_partition)
        assert staged.last_transform_stats.total() == crawl_stream.num_edges

    def test_transform_with_mapping_requires_clustering(self, crawl_stream):
        partitioner = ClugpPartitioner(8)
        vp = np.zeros(crawl_stream.num_vertices, dtype=np.int64)
        with pytest.raises(RuntimeError, match="cluster_summary first"):
            partitioner.transform_with_mapping(crawl_stream, vp)

    def test_uncovered_streamed_vertex_raises(self, crawl_stream):
        staged = ClugpPartitioner(8, seed=4)
        staged.cluster_summary(crawl_stream)
        vp = np.full(crawl_stream.num_vertices, -1, dtype=np.int64)  # covers nothing
        with pytest.raises(ValueError, match="does not cover"):
            staged.transform_with_mapping(crawl_stream, vp)

    def test_merge_report_granularity_diagnostic(self, crawl_stream):
        result = distributed_clugp(crawl_stream, 8, num_nodes=4)
        m = result.merge
        assert m.max_cluster_volume > 0
        assert m.total_wire_bytes() == (
            m.merge_bytes + m.broadcast_bytes + m.quota_bytes
        )
        assert result.to_dict()["merge"]["total_wire_bytes"] == m.total_wire_bytes()


class TestMergedQualityProperties:
    """Hypothesis sweeps of the merged <= per-shard concatenation RF property.

    The claim targets the quality cliff the merge removes: replication
    inflating with the node count on community-structured power-law
    crawl streams (the paper's setting).  The strategy therefore draws
    the inflation regime — k=8, 4-8 nodes, non-trivial size — in natural
    (BFS-crawl) and random stream order.  Outside it the property decays
    into equilibrium noise: at 2 nodes or k=4 both land within a
    couple of RF percent of each other and either can win a given draw
    (measured: 0/100 violations with min margin 0.115 RF inside the
    regime vs occasional <1% inversions at num_nodes=2 or k=4; the same
    happens on structureless uniform streams, see DESIGN.md §6).
    """

    @settings(max_examples=8, deadline=None)
    @given(
        pages=st.integers(min_value=800, max_value=1300),
        avg_degree=st.floats(min_value=6.0, max_value=10.0),
        host_size=st.integers(min_value=20, max_value=40),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        num_nodes=st.sampled_from([4, 8]),
        seed=st.integers(min_value=0, max_value=16),
    )
    def test_merged_rf_le_per_shard_powerlaw(
        self, pages, avg_degree, host_size, graph_seed, num_nodes, seed
    ):
        graph = web_crawl_graph(
            pages, avg_out_degree=avg_degree, host_size=host_size, seed=graph_seed
        )
        stream = EdgeStream.from_graph(graph, order="natural")
        mer = distributed_clugp(stream, 8, num_nodes=num_nodes, seed=seed)
        assert mer.assignment.replication_factor() <= per_shard_rf(
            stream, 8, num_nodes, seed
        )

    @settings(max_examples=6, deadline=None)
    @given(
        pages=st.integers(min_value=800, max_value=1300),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        order_seed=st.integers(min_value=0, max_value=100),
        num_nodes=st.sampled_from([4, 8]),
    )
    def test_merged_rf_le_per_shard_random_order(
        self, pages, graph_seed, order_seed, num_nodes
    ):
        graph = web_crawl_graph(
            pages, avg_out_degree=8.0, host_size=30, seed=graph_seed
        )
        stream = EdgeStream.from_graph(graph, order="random", seed=order_seed)
        mer = distributed_clugp(stream, 8, num_nodes=num_nodes, seed=0)
        assert mer.assignment.replication_factor() <= per_shard_rf(
            stream, 8, num_nodes
        )

    def test_merged_strictly_better_at_eight_nodes(self, crawl_stream):
        """The acceptance-criterion fixture: at 8 nodes the merge must
        strictly beat per-shard concatenation."""
        mer = distributed_clugp(crawl_stream, 8, num_nodes=8)
        assert mer.assignment.replication_factor() < per_shard_rf(crawl_stream, 8, 8)
