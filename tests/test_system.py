"""Tests for the GAS system layer: placement, network, runtime, apps."""

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.stream import EdgeStream
from repro.partitioners import HashingPartitioner
from repro.partitioners.base import PartitionAssignment
from repro.core.partitioner import ClugpPartitioner
from repro.system.runtime import LocalGasRuntime
from repro.system.network import NetworkModel
from repro.system.placement import build_placement
from repro.system.apps import (
    connected_components,
    label_propagation,
    pagerank,
    sssp,
)
from repro.system.apps.pagerank import PageRankProgram
from repro.system.apps.sssp import SsspProgram

networkx = pytest.importorskip("networkx")


def tiny_assignment():
    stream = EdgeStream([0, 1, 2, 0], [1, 2, 3, 3], num_vertices=4)
    return PartitionAssignment(stream, [0, 0, 1, 1], num_partitions=2)


class TestPlacement:
    def test_masters_and_mirrors_account(self):
        placement = build_placement(tiny_assignment())
        assert np.all(placement.master >= 0)  # every active vertex has one master
        assert placement.total_mirrors == 2  # v0 and v2 span both partitions
        assert placement.replica_counts.tolist() == [2, 1, 2, 1]

    def test_master_is_majority_partition(self):
        stream = EdgeStream([0, 0, 0], [1, 2, 3], num_vertices=4)
        a = PartitionAssignment(stream, [0, 0, 1], num_partitions=2)
        placement = build_placement(a)
        assert placement.master[0] == 0  # 2 of 3 edges in partition 0

    def test_isolated_vertex_has_no_master(self):
        stream = EdgeStream([0], [1], num_vertices=5)
        a = PartitionAssignment(stream, [0], num_partitions=2)
        placement = build_placement(a)
        assert placement.master[4] == -1

    def test_per_partition_sums(self):
        a = tiny_assignment()
        placement = build_placement(a)
        masters = np.bincount(placement.master[placement.master >= 0], minlength=2)
        assert masters.sum() == 4  # one master per active vertex
        assert placement.replica_counts.sum() == masters.sum() + placement.total_mirrors
        assert a.partition_sizes().sum() == 4


class TestNetworkModel:
    def test_comm_seconds_components(self):
        net = NetworkModel(
            bandwidth_bytes_per_s=1e6,
            rtt_seconds=0.01,
            seconds_per_message=0.0,
            rounds_per_superstep=2,
        )
        # 100 kB / 1e6 B/s = 0.1s + 2*0.01 RTT
        assert net.comm_seconds(1000, 100_000) == pytest.approx(0.12)

    def test_with_rtt(self):
        net = NetworkModel().with_rtt(0.5)
        assert net.rtt_seconds == 0.5

    def test_with_rtt_preserves_other_fields(self):
        base = NetworkModel(bandwidth_bytes_per_s=7e8, seconds_per_message=3e-6)
        net = base.with_rtt(0.5)
        assert net.bandwidth_bytes_per_s == 7e8
        assert net.seconds_per_message == 3e-6

    def test_with_bandwidth(self):
        base = NetworkModel().with_rtt(0.05)
        net = base.with_bandwidth(1e6)
        assert net.bandwidth_bytes_per_s == 1e6
        assert net.rtt_seconds == 0.05
        with pytest.raises(ValueError):
            base.with_bandwidth(0)

    def test_lower_bandwidth_costs_more(self):
        fast = NetworkModel().with_bandwidth(1.25e9)
        slow = NetworkModel().with_bandwidth(1e6)
        assert slow.comm_seconds(10_000, 160_000) > fast.comm_seconds(10_000, 160_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            NetworkModel(rtt_seconds=-1)

    def test_higher_rtt_costs_more(self):
        low = NetworkModel().with_rtt(0.01)
        high = NetworkModel().with_rtt(0.1)
        assert high.comm_seconds(10, 160) > low.comm_seconds(10, 160)


class TestEngine:
    def test_run_reports_costs(self, crawl_stream):
        a = HashingPartitioner(4).partition(crawl_stream)
        engine = LocalGasRuntime(a)
        _, cost = pagerank(engine, max_supersteps=5)
        assert cost.num_supersteps == 5
        assert cost.total_messages > 0
        assert cost.total_seconds > 0
        # PageRank's dense float64 accumulator: an 8-byte vertex header
        # plus an 8-byte value per message, both directions
        assert cost.total_bytes == 16 * cost.total_messages

    def test_more_mirrors_more_messages(self, crawl_stream):
        bad = HashingPartitioner(8).partition(crawl_stream)
        good = ClugpPartitioner(8).partition(crawl_stream)
        net = NetworkModel()
        _, cost_bad = pagerank(LocalGasRuntime(bad, network=net), max_supersteps=5)
        _, cost_good = pagerank(LocalGasRuntime(good, network=net), max_supersteps=5)
        assert cost_good.total_messages < cost_bad.total_messages

    def test_rejects_bad_throughput(self):
        with pytest.raises(ValueError):
            LocalGasRuntime(tiny_assignment(), edges_per_second=0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: pagerank(LocalGasRuntime(tiny_assignment()), tol=float("nan")),
            lambda: LocalGasRuntime(tiny_assignment(), edges_per_second=float("nan")),
            lambda: LocalGasRuntime(tiny_assignment(), vertices_per_second=float("nan")),
            lambda: NetworkModel(bandwidth_bytes_per_s=float("nan")),
            lambda: NetworkModel(rtt_seconds=float("nan")),
            lambda: NetworkModel(seconds_per_message=float("nan")),
        ],
        ids=[
            "tol", "edges_per_second", "vertices_per_second",
            "bandwidth_bytes_per_s", "rtt_seconds", "seconds_per_message",
        ],
    )
    def test_rejects_nan_knobs(self, build, request):
        """NaN passes every ``x <= 0`` test: PageRank then never converged
        and each superstep was priced at NaN seconds."""
        with pytest.raises(ValueError, match=request.node.callspec.id):
            build()

    def test_rejects_bad_max_supersteps(self):
        engine = LocalGasRuntime(tiny_assignment())
        with pytest.raises(ValueError):
            engine.run(PageRankProgram(), max_supersteps=0)

    def test_run_cost_to_dict(self):
        _, cost = pagerank(LocalGasRuntime(tiny_assignment()), max_supersteps=3)
        payload = cost.to_dict()
        assert payload["supersteps"] == cost.num_supersteps
        assert payload["messages"] == cost.total_messages
        assert payload["total_seconds"] == pytest.approx(cost.total_seconds)
        assert "per_superstep" not in payload
        detailed = cost.to_dict(per_superstep=True)
        assert len(detailed["per_superstep"]) == cost.num_supersteps
        assert detailed["per_superstep"][0]["superstep"] == 0
        assert (
            detailed["per_superstep"][0]["messages"] == cost.supersteps[0].messages
        )

    def test_run_cost_summary(self):
        _, cost = pagerank(LocalGasRuntime(tiny_assignment()), max_supersteps=3)
        text = cost.summary()
        assert f"supersteps={cost.num_supersteps}" in text
        assert f"messages={cost.total_messages}" in text


class TestPageRank:
    def test_matches_networkx(self, crawl_graph):
        stream = EdgeStream.from_graph(crawl_graph)
        a = HashingPartitioner(4).partition(stream)
        ranks, _ = pagerank(LocalGasRuntime(a), tol=1e-12, max_supersteps=200)
        G = networkx.MultiDiGraph()
        G.add_nodes_from(range(crawl_graph.num_vertices))
        G.add_edges_from(zip(crawl_graph.src.tolist(), crawl_graph.dst.tolist()))
        expected = networkx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=300)
        vec = np.array([expected[i] for i in range(crawl_graph.num_vertices)])
        assert np.abs(ranks - vec).max() < 1e-8

    def test_ranks_sum_to_one(self):
        engine = LocalGasRuntime(tiny_assignment())
        ranks, _ = pagerank(engine, max_supersteps=100)
        assert ranks.sum() == pytest.approx(1.0)

    def test_partitioning_does_not_change_values(self, crawl_stream):
        a1 = HashingPartitioner(2).partition(crawl_stream)
        a2 = ClugpPartitioner(8).partition(crawl_stream)
        r1, _ = pagerank(LocalGasRuntime(a1), max_supersteps=30)
        r2, _ = pagerank(LocalGasRuntime(a2), max_supersteps=30)
        assert np.allclose(r1, r2)

    def test_validation(self):
        with pytest.raises(ValueError):
            PageRankProgram(damping=1.5)
        with pytest.raises(ValueError):
            PageRankProgram(tol=0)


class TestConnectedComponents:
    def test_matches_union_find(self, crawl_graph):
        stream = EdgeStream.from_graph(crawl_graph)
        a = HashingPartitioner(4).partition(stream)
        labels, _ = connected_components(LocalGasRuntime(a))
        assert np.array_equal(labels, crawl_graph.weakly_connected_components())

    def test_two_components(self):
        stream = EdgeStream([0, 2], [1, 3], num_vertices=4)
        a = PartitionAssignment(stream, [0, 1], num_partitions=2)
        labels, cost = connected_components(LocalGasRuntime(a))
        assert labels.tolist() == [0, 0, 2, 2]
        assert cost.num_supersteps >= 1


class TestSssp:
    def test_path_distances(self):
        stream = EdgeStream([0, 1, 2], [1, 2, 3], num_vertices=4)
        a = PartitionAssignment(stream, [0, 0, 1], num_partitions=2)
        dist, _ = sssp(LocalGasRuntime(a), source=0)
        assert dist.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_unreachable_is_inf(self):
        stream = EdgeStream([0], [1], num_vertices=3)
        a = PartitionAssignment(stream, [0], num_partitions=1)
        dist, _ = sssp(LocalGasRuntime(a), source=0)
        assert np.isinf(dist[2])

    def test_weighted(self):
        stream = EdgeStream([0, 0, 1], [1, 2, 2], num_vertices=3)
        a = PartitionAssignment(stream, [0, 0, 0], num_partitions=1)
        dist, _ = sssp(LocalGasRuntime(a), source=0, weights=[5.0, 1.0, 1.0])
        assert dist[2] == 1.0
        assert dist[1] == 5.0

    def test_matches_networkx(self, crawl_graph):
        stream = EdgeStream.from_graph(crawl_graph)
        a = HashingPartitioner(4).partition(stream)
        source = int(np.argmax(crawl_graph.out_degrees()))
        dist, _ = sssp(LocalGasRuntime(a), source=source)
        G = networkx.DiGraph()
        G.add_nodes_from(range(crawl_graph.num_vertices))
        G.add_edges_from(zip(crawl_graph.src.tolist(), crawl_graph.dst.tolist()))
        expected = networkx.single_source_shortest_path_length(G, source)
        for v, d in expected.items():
            assert dist[v] == d

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            SsspProgram(0, weights=[-1.0])

    def test_rejects_bad_source(self):
        engine = LocalGasRuntime(tiny_assignment())
        with pytest.raises(ValueError, match="source"):
            engine.run(SsspProgram(99))


class TestLabelPropagation:
    def test_communities_converge_on_planted(self, community_graph):
        stream = EdgeStream.from_graph(community_graph)
        a = HashingPartitioner(4).partition(stream)
        labels, _ = label_propagation(LocalGasRuntime(a), max_iters=8)
        # vertices in one planted block should mostly share a label
        block = labels[:40]
        dominant = np.bincount(block).max()
        assert dominant > 20

    def test_deterministic(self):
        engine = LocalGasRuntime(tiny_assignment())
        a, _ = label_propagation(engine, max_iters=3)
        b, _ = label_propagation(engine, max_iters=3)
        assert np.array_equal(a, b)

    def test_bounded_iterations(self):
        engine = LocalGasRuntime(tiny_assignment())
        _, cost = label_propagation(engine, max_iters=2)
        assert cost.num_supersteps <= 3
