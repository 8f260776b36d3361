"""Bit-identity of the hdrf/greedy chunked cores against their oracle.

The two sequential-state baselines run their chunks through a lean
scalar core fed by vectorized exact precomputation (HDRF's
partial-degree/g terms) on hosts without a kernel backend, and through a
compiled kernel elsewhere.  Three implementations of each algorithm must
agree exactly, for every chunk geometry:

* ``partition_per_edge`` — the faithful per-edge streaming oracle;
* ``partition_chunked`` on the numpy tier (``CLUGP_KERNEL_BACKEND=none``)
  — the lean core;
* ``partition_chunked`` on the kernel tier, through the always-loadable
  plain-Python backend.

The hypothesis cases deliberately generate collision-heavy streams (a
handful of vertices, many repeated endpoints and self-loops per chunk):
they stress the within-chunk occurrence machinery behind HDRF's degree
precompute and the candidate-shortcut guard paths of both lean cores.
"""

import numpy as np
import pytest
from conftest import kernel_backend
from hypothesis import given, settings, strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.partitioners.greedy import GreedyPartitioner
from repro.partitioners.hdrf import HDRFPartitioner

STATEFUL = {"hdrf": HDRFPartitioner, "greedy": GreedyPartitioner}


@pytest.fixture(scope="module")
def stream():
    graph = web_crawl_graph(
        400, avg_out_degree=8.0, host_size=25, intra_host_prob=0.85, seed=13
    )
    return EdgeStream.from_graph(graph, order="random", seed=5)


def _on_tier(cls, tier, k, **kwargs):
    with kernel_backend(tier):
        return cls(k, **kwargs)


def _assert_three_way(cls, stream, k, chunk_size, **kwargs):
    per_edge = cls(k, **kwargs).partition_per_edge(stream).edge_partition
    for tier in ("none", "python"):
        chunked = _on_tier(cls, tier, k, **kwargs).partition_chunked(stream, chunk_size=chunk_size)
        assert np.array_equal(per_edge, chunked.edge_partition), tier


@pytest.mark.parametrize("name", sorted(STATEFUL))
@pytest.mark.parametrize("chunk_size", [1, 7, 1024, "all"])
def test_chunk_sizes_bit_identical(name, chunk_size, stream):
    if chunk_size == "all":
        chunk_size = stream.num_edges  # one chunk spanning the stream
    _assert_three_way(STATEFUL[name], stream, 8, chunk_size)


@pytest.mark.parametrize("name", sorted(STATEFUL))
@pytest.mark.parametrize("k", [1, 3, 64, 100])
def test_partition_counts_bit_identical(name, k, stream):
    # k = 64 exercises the top bit of a single mask word, k = 100 the
    # multiword kernel tables against the unbounded-int fast core
    _assert_three_way(STATEFUL[name], stream, k, 509)


@pytest.mark.parametrize("lambda_bal", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("epsilon", [0.25, 1.0])
def test_hdrf_parameter_space_bit_identical(lambda_bal, epsilon, stream):
    # lambda_bal = 0 is the degenerate all-scores-tie regime where the
    # reference argmax collapses to partition 0; large lambda_bal defeats
    # the members-only shortcut and forces the exact full-scan fallback
    _assert_three_way(
        HDRFPartitioner, stream, 6, 777, lambda_bal=lambda_bal, epsilon=epsilon
    )


@pytest.mark.parametrize("name", sorted(STATEFUL))
def test_replica_accounting_matches(name, stream):
    cls = STATEFUL[name]
    ref = cls(8)
    ref.partition_per_edge(stream)
    fast = _on_tier(cls, "none", 8)
    fast.partition_chunked(stream, chunk_size=311)
    loop = _on_tier(cls, "python", 8)
    loop.partition_chunked(stream, chunk_size=311)
    assert ref._replica_entries == fast._replica_entries == loop._replica_entries
    assert fast.state_memory_bytes(stream) == loop.state_memory_bytes(stream)


@pytest.mark.parametrize("name", sorted(STATEFUL))
def test_self_loops_and_duplicate_edges(name):
    stream = EdgeStream(
        [0, 0, 1, 1, 0, 2, 2, 1], [0, 1, 1, 0, 1, 2, 0, 1], num_vertices=3
    )
    _assert_three_way(STATEFUL[name], stream, 4, 3)


@pytest.mark.parametrize("name", sorted(STATEFUL))
def test_empty_and_single_edge(name):
    cls = STATEFUL[name]
    empty = EdgeStream([], [], num_vertices=0)
    assert cls(4).partition_chunked(empty).edge_partition.size == 0
    one = EdgeStream([0], [1], num_vertices=2)
    _assert_three_way(cls, one, 4, 1)


@pytest.mark.parametrize("name", sorted(STATEFUL))
def test_invalid_chunk_impl_rejected(name):
    # any value: the constructors take no implementation selector
    for retired in ("chunk_impl", "kernel_backend"):
        with pytest.raises(TypeError, match=retired):
            STATEFUL[name](4, **{retired: "jit"})


@pytest.mark.parametrize("epsilon", [0.0, -1.0])
def test_hdrf_rejects_nonpositive_epsilon(epsilon):
    # eps = 0 divides by zero at the first edge (all loads equal) — the
    # constructor closes the gap for every path at once
    with pytest.raises(ValueError, match="epsilon"):
        HDRFPartitioner(4, epsilon=epsilon)


# --------------------------------------------------------------------- #
# collision-heavy property tests
# --------------------------------------------------------------------- #

collision_edges = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=120
)


@settings(max_examples=40, deadline=None)
@given(edges=collision_edges, chunk_size=st.integers(1, 130), k=st.integers(1, 9))
def test_greedy_collision_heavy_streams(edges, chunk_size, k):
    stream = EdgeStream.from_graph(DiGraph.from_edges(edges))
    _assert_three_way(GreedyPartitioner, stream, k, chunk_size)


@settings(max_examples=40, deadline=None)
@given(
    edges=collision_edges,
    chunk_size=st.integers(1, 130),
    k=st.integers(1, 9),
    lambda_bal=st.sampled_from([0.0, 0.7, 1.0, 2.5]),
)
def test_hdrf_collision_heavy_streams(edges, chunk_size, k, lambda_bal):
    stream = EdgeStream.from_graph(DiGraph.from_edges(edges))
    _assert_three_way(
        HDRFPartitioner, stream, k, chunk_size, lambda_bal=lambda_bal
    )
