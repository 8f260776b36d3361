"""Cross-module consistency properties: the same quantity computed by two
independent code paths must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import quality_report
from repro.graph.digraph import DiGraph
from repro.graph.stream import EdgeStream
from repro.partitioners.base import PartitionAssignment
from repro.system.network import NetworkModel
from repro.system.runtime import LocalGasRuntime
from repro.system.placement import build_local_index, build_placement
from repro.system.apps.pagerank import pagerank


def random_assignment(edges, k, seed):
    g = DiGraph.from_edges(edges)
    stream = EdgeStream.from_graph(g)
    rng = np.random.default_rng(seed)
    parts = rng.integers(0, k, size=stream.num_edges, dtype=np.int64)
    return PartitionAssignment(stream, parts, num_partitions=k)


edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=60
)


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists, k=st.integers(1, 8), seed=st.integers(0, 100))
def test_placement_rf_matches_assignment_rf(edges, k, seed):
    # the slot index's replica counts and the sorted incidence's agree
    a = random_assignment(edges, k, seed)
    placement = build_placement(a)
    assert np.array_equal(placement.replica_counts, a.vertex_partition_counts())
    active = placement.replica_counts[placement.replica_counts > 0]
    assert active.mean() == pytest.approx(a.replication_factor())


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists, k=st.integers(1, 8), seed=st.integers(0, 100))
def test_mirror_count_three_ways(edges, k, seed):
    a = random_assignment(edges, k, seed)
    # the quality report (sorted incidence), the placement and the
    # routing table (one row per mirror replica) agree
    mirrors = quality_report(a).mirrors
    assert build_placement(a).total_mirrors == mirrors
    assert build_local_index(a).routes.num_mirrors == mirrors


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists, k=st.integers(1, 8), seed=st.integers(0, 100))
def test_masters_equal_active_vertices(edges, k, seed):
    a = random_assignment(edges, k, seed)
    placement = build_placement(a)
    assert np.count_nonzero(placement.master >= 0) == a.stream.active_vertices().size


@settings(max_examples=10, deadline=None)
@given(edges=edge_lists, k=st.integers(1, 4), seed=st.integers(0, 50))
def test_engine_message_accounting(edges, k, seed):
    # in the first superstep every active vertex syncs: messages must be
    # exactly 2 * total mirrors
    a = random_assignment(edges, k, seed)
    engine = LocalGasRuntime(a, network=NetworkModel(rtt_seconds=0.0))
    _, cost = pagerank(engine, max_supersteps=1)
    placement = build_placement(a)
    assert cost.supersteps[0].messages == 2 * placement.total_mirrors


@settings(max_examples=15, deadline=None)
@given(edges=edge_lists, k=st.integers(1, 6), seed=st.integers(0, 50))
def test_vertex_partition_counts_vs_vertex_sets(edges, k, seed):
    a = random_assignment(edges, k, seed)
    hosts = [set() for _ in range(a.stream.num_vertices)]
    for u, v, p in zip(a.stream.src.tolist(), a.stream.dst.tolist(), a.edge_partition.tolist()):
        hosts[u].add(p)
        hosts[v].add(p)
    assert a.vertex_partition_counts().tolist() == [len(h) for h in hosts]


@settings(max_examples=15, deadline=None)
@given(edges=edge_lists, k=st.integers(1, 6), seed=st.integers(0, 50))
def test_partition_sizes_vs_manual_count(edges, k, seed):
    a = random_assignment(edges, k, seed)
    manual = np.zeros(k, dtype=np.int64)
    for p in a.edge_partition.tolist():
        manual[p] += 1
    assert np.array_equal(a.partition_sizes(), manual)
