"""Tests for the edge-stream model (Definition 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.stream import EdgeStream, StreamOrder


def make_stream():
    g = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    return EdgeStream.from_graph(g)


class TestConstruction:
    def test_basic(self):
        s = make_stream()
        assert s.num_edges == 5 and len(s) == 5

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError, match="out of range"):
            EdgeStream([0, 9], [1, 2], num_vertices=5)

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            EdgeStream([-1], [0], num_vertices=3)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            EdgeStream([0, 1], [1], num_vertices=3)

    def test_empty_stream(self):
        s = EdgeStream([], [], num_vertices=0)
        assert s.num_edges == 0
        assert list(s) == [] and list(s.batches(4)) == []


class TestOrders:
    def test_natural_preserves_order(self):
        g = DiGraph([5, 3, 1], [4, 2, 0], num_vertices=6)
        s = EdgeStream.from_graph(g, order="natural")
        assert s.src.tolist() == [5, 3, 1]
        # the columns are shared with the graph, not a second copy of it
        assert np.shares_memory(s.src, g.src) and np.shares_memory(s.dst, g.dst)

    def test_random_is_permutation(self):
        g = DiGraph.from_edges([(i, i + 1) for i in range(50)])
        s = EdgeStream.from_graph(g, order="random", seed=3)
        assert sorted(zip(s.src.tolist(), s.dst.tolist())) == sorted(
            zip(g.src.tolist(), g.dst.tolist())
        )
        assert s.src.tolist() != g.src.tolist()

    def test_random_seeded_deterministic(self):
        g = DiGraph.from_edges([(i, i + 1) for i in range(50)])
        a = EdgeStream.from_graph(g, order="random", seed=7)
        b = EdgeStream.from_graph(g, order="random", seed=7)
        assert np.array_equal(a.src, b.src)

    def test_bfs_groups_source_edges(self):
        # path graph: BFS from 0 must order edges by distance from 0
        g = DiGraph.from_edges([(2, 3), (0, 1), (1, 2)])
        s = EdgeStream.from_graph(g, order="bfs", source=0)
        assert s.src.tolist() == [0, 1, 2]

    def test_dfs_order_valid_permutation(self):
        g = DiGraph.from_edges([(0, 1), (0, 2), (2, 3), (1, 3)])
        s = EdgeStream.from_graph(g, order="dfs", source=0)
        assert sorted(zip(s.src.tolist(), s.dst.tolist())) == sorted(
            zip(g.src.tolist(), g.dst.tolist())
        )

    def test_order_enum_accepts_strings(self):
        assert StreamOrder("bfs") is StreamOrder.BFS
        with pytest.raises(ValueError):
            StreamOrder("nope")

    def test_reordered(self):
        s = make_stream()
        r = s.reordered("random", seed=1)
        assert r.num_edges == s.num_edges
        assert sorted(zip(r.src.tolist(), r.dst.tolist())) == sorted(
            zip(s.src.tolist(), s.dst.tolist())
        )


class TestAccess:
    def test_iteration_yields_python_ints(self):
        for u, v in make_stream():
            assert isinstance(u, int) and isinstance(v, int)

    def test_batches_cover_stream(self):
        s = make_stream()
        chunks = list(s.batches(2))
        assert [c[0].size for c in chunks] == [2, 2, 1]
        rebuilt = np.concatenate([c[0] for c in chunks])
        assert np.array_equal(rebuilt, s.src)
        # what a kernel indexes: contiguous int64 views, no per-chunk copy
        for column in (c for pair in chunks for c in pair):
            assert column.dtype == np.int64 and column.flags.c_contiguous
            assert np.shares_memory(column, s.src) or np.shares_memory(column, s.dst)
        # restartable: a second pass starts again from the first edge
        assert [c[0].tolist() for c in s.batches(2)] == [c[0].tolist() for c in chunks]
        # an edge-aligned array rides along as views of the same edges
        out = np.arange(s.num_edges)
        slices = [o for _, _, o in s.batches(2, out)]
        assert [o.tolist() for o in slices] == [[0, 1], [2, 3], [4]]
        assert all(np.shares_memory(o, out) for o in slices)

    def test_batches_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(make_stream().batches(0))

    def test_to_graph_roundtrip(self):
        s = make_stream()
        g = s.to_graph()
        assert np.array_equal(g.src, s.src)
        assert g.num_vertices == s.num_vertices

    def test_active_vertices(self):
        s = EdgeStream([0], [2], num_vertices=5)
        assert s.active_vertices().tolist() == [0, 2]

    def test_degrees(self):
        s = make_stream()
        assert s.degrees().sum() == 2 * s.num_edges


@settings(max_examples=20, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=50
    ),
    order=st.sampled_from(["natural", "random", "bfs", "dfs"]),
)
def test_property_every_order_is_permutation(edges, order):
    g = DiGraph.from_edges(edges)
    s = EdgeStream.from_graph(g, order=order, seed=0)
    assert s.num_edges == g.num_edges
    assert sorted(zip(s.src.tolist(), s.dst.tolist())) == sorted(
        zip(g.src.tolist(), g.dst.tolist())
    )
