"""Adversarial and failure-injection inputs across the public API.

Every algorithm must either produce a valid result or raise a clear
ValueError — never crash, hang, or silently emit out-of-range ids — on
degenerate streams: empty, single-edge, all-self-loops, all-parallel,
hub-only, k larger than the edge count, and disconnected dust.
"""

import numpy as np
import pytest

from repro.config import ClugpConfig, GameConfig
from repro.core.partitioner import ClugpPartitioner
from repro.core.distributed import distributed_clugp
from repro.graph.digraph import DiGraph
from repro.graph.stream import EdgeStream
from repro.partitioners.registry import make_partitioner
from repro.system.runtime import LocalGasRuntime
from repro.system.apps.pagerank import pagerank

ALGORITHMS = [
    "hashing",
    "dbh",
    "greedy",
    "hdrf",
    "mint",
    "clugp",
]


def adversarial_streams():
    return {
        "single_edge": EdgeStream([0], [1], num_vertices=2),
        "self_loops": EdgeStream([0, 1, 2] * 4, [0, 1, 2] * 4, num_vertices=3),
        "parallel_edges": EdgeStream([0] * 20, [1] * 20, num_vertices=2),
        "hub_only": EdgeStream([0] * 30, list(range(1, 31)), num_vertices=31),
        "dust": EdgeStream(
            list(range(0, 40, 2)), list(range(1, 40, 2)), num_vertices=40
        ),
        "two_cliques": EdgeStream.from_graph(
            DiGraph.from_edges(
                [(i, j) for i in range(5) for j in range(5) if i != j]
                + [(i, j) for i in range(5, 10) for j in range(5, 10) if i != j]
            )
        ),
    }


@pytest.mark.parametrize("name", sorted(adversarial_streams()))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_degenerate_streams(name, algorithm):
    stream = adversarial_streams()[name]
    k = 4
    assignment = make_partitioner(algorithm, k, seed=0).partition(stream)
    assert assignment.edge_partition.shape == (stream.num_edges,)
    assert assignment.edge_partition.min() >= 0
    assert assignment.edge_partition.max() < k
    assert assignment.replication_factor() >= 1.0


@pytest.mark.parametrize("algorithm", ["hashing", "greedy", "hdrf", "clugp"])
def test_k_exceeds_edge_count(algorithm):
    stream = EdgeStream([0, 1, 2], [1, 2, 0], num_vertices=3)
    assignment = make_partitioner(algorithm, 16, seed=0).partition(stream)
    assert assignment.partition_sizes().sum() == 3


def test_clugp_empty_stream():
    stream = EdgeStream([], [], num_vertices=0)
    assignment = ClugpPartitioner(4).partition(stream)
    assert assignment.edge_partition.size == 0
    assert assignment.replication_factor() == 0.0


def test_clugp_extreme_tau():
    stream = EdgeStream([0] * 10, list(range(1, 11)), num_vertices=11)
    a_tight = ClugpPartitioner(2, imbalance_factor=1.0).partition(stream)
    a_loose = ClugpPartitioner(2, imbalance_factor=10.0).partition(stream)
    assert a_tight.partition_sizes().max() <= 5
    assert a_loose.partition_sizes().sum() == 10


def test_clugp_vmax_one():
    # minimum legal cluster capacity: every vertex isolated in its own
    # cluster; the pipeline must still terminate with a valid result
    stream = EdgeStream([0, 1, 2, 3], [1, 2, 3, 0], num_vertices=4)
    p = ClugpPartitioner(2, max_cluster_volume=1)
    assignment = p.partition(stream)
    assert assignment.edge_partition.max() < 2


def test_game_with_more_partitions_than_clusters():
    stream = EdgeStream([0, 1], [1, 0], num_vertices=2)
    cfg = ClugpConfig(num_partitions=8, game=GameConfig(seed=0))
    assignment = ClugpPartitioner(8, config=cfg).partition(stream)
    assert assignment.edge_partition.max() < 8


def test_distributed_on_tiny_stream():
    stream = EdgeStream([0, 1, 2], [1, 2, 0], num_vertices=3)
    result = distributed_clugp(stream, 2, num_nodes=3)
    assert result.assignment.partition_sizes().sum() == 3


def test_engine_on_single_vertex_loop():
    stream = EdgeStream([0, 0], [0, 0], num_vertices=1)
    from repro.partitioners.base import PartitionAssignment

    a = PartitionAssignment(stream, [0, 0], num_partitions=1)
    ranks, cost = pagerank(LocalGasRuntime(a), max_supersteps=10)
    assert ranks[0] == pytest.approx(1.0)
    assert cost.total_messages == 0  # one replica -> nothing to sync


def test_stream_orders_on_disconnected_dust():
    g = DiGraph(list(range(0, 20, 2)), list(range(1, 20, 2)), num_vertices=20)
    for order in ("natural", "random", "bfs", "dfs"):
        s = EdgeStream.from_graph(g, order=order, seed=0)
        assert s.num_edges == 10
