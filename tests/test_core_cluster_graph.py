"""Tests for the cluster multigraph builder (pass 2 input)."""

import numpy as np
import pytest
from conftest import BACKENDS, kernel_backend
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro._util import adjacency_rows
from repro.config import GameConfig
from repro.graph.digraph import DiGraph
from repro.graph.stream import EdgeStream
from repro.core.clustering import ClusteringResult, streaming_clustering
from repro.core.cluster_graph import (
    ClusterGraph,
    _radix_group,
    build_cluster_graph,
    cluster_graph_from_labels,
    grouped_cluster_graph,
)
from repro.core.game import ClusterPartitioningGame


def clustered_stream(edges, vmax=1000):
    s = EdgeStream.from_graph(DiGraph.from_edges(edges))
    return s, streaming_clustering(s, max_volume=vmax, enable_splitting=True)


def csr_row(indptr, indices, weights, c):
    """Row ``c`` of a CSR triple as ``{column: weight}``."""
    s, e = int(indptr[c]), int(indptr[c + 1])
    return dict(zip(indices[s:e].tolist(), weights[s:e].tolist()))


def out_row(cg, c):
    return csr_row(cg.indptr, cg.indices, cg.weights, c)


def in_row(cg, c):
    return csr_row(cg.in_indptr, cg.in_indices, cg.in_weights, c)


def assert_game_adjacency_is_out_plus_in(cg, k=3, seed=0):
    """The game's adjacency row of every cluster is its out-row plus its
    in-row, summed per partition of the neighbor."""
    game = ClusterPartitioningGame(cg, k, GameConfig(seed=seed))
    for c in range(cg.num_clusters):
        want = np.zeros(k)
        for row in (out_row(cg, c), in_row(cg, c)):
            for nbr, w in row.items():
                want[game.assignment[nbr]] += w
        assert np.array_equal(game._adjacency_row(c, game.assignment), want)


class TestBuild:
    def test_intra_cluster_edges_internal(self):
        s, clustering = clustered_stream([(0, 1), (1, 0)])
        cg = build_cluster_graph(s, clustering)
        assert cg.total_internal() == 2
        assert cg.total_cut() == 0

    def test_cross_cluster_edges_weighted(self):
        # two triangles + one bridge; vmax large so triangles merge cleanly
        s, clustering = clustered_stream(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)], vmax=6
        )
        cg = build_cluster_graph(s, clustering)
        assert cg.total_internal() + cg.total_cut() == s.num_edges

    def test_self_loop_is_internal(self):
        s, clustering = clustered_stream([(0, 0), (0, 1)])
        cg = build_cluster_graph(s, clustering)
        assert cg.total_internal() >= 1

    def test_in_out_mirror_each_other(self):
        s, clustering = clustered_stream(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (4, 1)], vmax=6
        )
        cg = build_cluster_graph(s, clustering)
        for c in range(cg.num_clusters):
            for nbr, w in out_row(cg, c).items():
                assert in_row(cg, nbr)[c] == w

    def test_csr_rows_sorted_and_consistent(self):
        s, clustering = clustered_stream(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (4, 1)], vmax=6
        )
        cg = build_cluster_graph(s, clustering)
        assert cg.indptr.shape == (cg.num_clusters + 1,)
        assert cg.indptr[0] == 0 and cg.indptr[-1] == cg.indices.size
        assert cg.indices.size == cg.weights.size
        for c in range(cg.num_clusters):
            row = cg.indices[cg.indptr[c] : cg.indptr[c + 1]]
            assert np.all(np.diff(row) > 0)  # sorted, no duplicates
        assert (cg.weights > 0).all()
        assert int(cg.in_weights.sum()) == int(cg.weights.sum())

    def test_game_adjacency_sums_directions(self):
        s, clustering = clustered_stream([(0, 1), (2, 0), (0, 2)], vmax=2)
        assert_game_adjacency_is_out_plus_in(build_cluster_graph(s, clustering))

    def test_game_adjacency_of_two_linked_triangles(self):
        s, clustering = clustered_stream(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (4, 1)], vmax=6
        )
        assert_game_adjacency_is_out_plus_in(build_cluster_graph(s, clustering))

    def test_edge_count_check_with_self_loops(self):
        """Self-loops are internal, so ``internal + cut == |E|`` is exact
        on a graph that has them, and one corrupted weight breaks it."""
        s, clustering = clustered_stream(
            [(0, 0), (1, 1), (0, 1), (2, 3), (3, 3), (3, 2), (1, 2)], vmax=3
        )
        loops = int((s.src == s.dst).sum())
        cg = build_cluster_graph(s, clustering)
        assert cg.total_cut() > 0 and cg.edge_count_check(s.num_edges, loops)
        assert not cg.edge_count_check(s.num_edges, cg.total_internal() + 1)
        cg.weights[0] += 1
        assert not cg.edge_count_check(s.num_edges, loops)

    def test_cut_degree(self):
        s, clustering = clustered_stream(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)], vmax=6
        )
        cg = build_cluster_graph(s, clustering)
        total_cut_degree = sum(cg.cut_degree(c) for c in range(cg.num_clusters))
        assert total_cut_degree == 2 * cg.total_cut()

    def test_rejects_unclustered_vertices(self):
        s = EdgeStream([0], [1], num_vertices=2)
        clustering = streaming_clustering(
            EdgeStream([0], [1], num_vertices=2), max_volume=5, enable_splitting=True
        )
        bigger = EdgeStream([0, 1], [1, 0], num_vertices=2)
        # same clustering works for a permuted stream over the same vertices
        cg = build_cluster_graph(bigger, clustering)
        assert cg.total_internal() + cg.total_cut() == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "labels", [[0, 4, 1], [0, 3, 1], [0, 1, -1], [0, 1]],
        ids=["above", "at_m", "negative", "short_map"],
    )
    def test_refuses_a_label_outside_the_cluster_range(self, labels, backend):
        # a label at or above num_clusters once packed into another
        # cluster's key: edge 0 -> 1 became an internal edge of cluster 1
        stream = EdgeStream([0, 2], [1, 0], num_vertices=3)
        with kernel_backend(backend), pytest.raises(ValueError, match="edge [01]: "):
            grouped_cluster_graph(stream, np.array(labels), 3)

    @pytest.mark.parametrize(
        "count, fill", [(-1, None), (2, 1), (2, -1)],
        ids=["count_refused", "fill_short", "fill_refused"],
    )
    def test_a_grouping_the_kernel_refuses_is_an_error(self, count, fill, monkeypatch):
        # pack_pairs and the sort rule both out; the kernel still reports them
        python = kernels.get_backend("python")
        replies = iter([count, fill])

        class Refusing:
            pack_pairs_i32 = staticmethod(python.pack_pairs_i32)

            @staticmethod
            def group_keys_i32(*args):
                return next(replies)

        monkeypatch.setattr(kernels, "get_backend", lambda name=None: Refusing)
        stream = EdgeStream([0, 2], [1, 0], num_vertices=3)
        with pytest.raises(RuntimeError, match="group_keys_i32 refused"):
            grouped_cluster_graph(stream, np.arange(3), 3)

    def test_empty_stream(self):
        s = EdgeStream([], [], num_vertices=0)
        clustering = streaming_clustering(s, max_volume=5, enable_splitting=True)
        cg = build_cluster_graph(s, clustering)
        assert cg.num_clusters == 0
        assert cg.total_internal() == 0


@settings(max_examples=20, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=80
    ),
    vmax=st.integers(1, 30),
)
def test_property_every_edge_accounted(edges, vmax):
    s, clustering = clustered_stream(edges, vmax=vmax)
    cg = build_cluster_graph(s, clustering)
    assert cg.total_internal() + cg.total_cut() == s.num_edges
    # internal counts are non-negative and bounded by the stream
    assert (cg.internal >= 0).all()
    assert cg.internal.sum() <= s.num_edges


class TestMerge:
    """ClusterGraph.merge: the coordinator half of the distributed union."""

    def _two_graphs(self):
        s1, c1 = clustered_stream(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)], vmax=6
        )
        s2, c2 = clustered_stream([(0, 1), (1, 0), (2, 3), (0, 2)], vmax=4)
        return build_cluster_graph(s1, c1), build_cluster_graph(s2, c2)

    def test_identity_relabel_is_bit_identical(self):
        g, _ = self._two_graphs()
        merged = ClusterGraph.merge(
            [g], [np.arange(g.num_clusters)], num_clusters=g.num_clusters
        )
        assert np.array_equal(merged.internal, g.internal)
        assert np.array_equal(merged.indptr, g.indptr)
        assert np.array_equal(merged.indices, g.indices)
        assert np.array_equal(merged.weights, g.weights)
        assert np.array_equal(merged.in_indptr, g.in_indptr)
        assert np.array_equal(merged.in_indices, g.in_indices)
        assert np.array_equal(merged.in_weights, g.in_weights)
        assert merged.internal.dtype == np.int64
        assert merged.weights.dtype == np.int64

    def test_disjoint_union_conserves_weight(self):
        g1, g2 = self._two_graphs()
        m1, m2 = g1.num_clusters, g2.num_clusters
        merged = ClusterGraph.merge(
            [g1, g2],
            [np.arange(m1), np.arange(m2) + m1],
            num_clusters=m1 + m2,
        )
        assert merged.num_clusters == m1 + m2
        assert merged.total_internal() == g1.total_internal() + g2.total_internal()
        assert merged.total_cut() == g1.total_cut() + g2.total_cut()
        # the relabel is a bijection onto 0..M-1: each input row survives
        assert np.array_equal(merged.internal[:m1], g1.internal)
        assert np.array_equal(merged.internal[m1:], g2.internal)

    def test_bijective_relabel_permutes(self):
        g, _ = self._two_graphs()
        m = g.num_clusters
        perm = np.arange(m)[::-1].copy()
        merged = ClusterGraph.merge([g], [perm], num_clusters=m)
        assert np.array_equal(merged.internal, g.internal[::-1])
        assert merged.total_cut() == g.total_cut()
        # inverse permutation restores the original arrays exactly
        back = ClusterGraph.merge([merged], [perm], num_clusters=m)
        assert np.array_equal(back.internal, g.internal)
        assert np.array_equal(back.indices, g.indices)
        assert np.array_equal(back.weights, g.weights)

    def test_non_injective_relabel_folds_into_internal(self):
        g = ClusterGraph.from_dicts(
            3,
            internal=np.array([2, 3, 1]),
            out_edges=[{1: 4}, {2: 5}, {}],
            in_edges=[{}, {0: 4}, {1: 5}],
        )
        # collapse clusters 0 and 1: their 4 cut edges become internal
        merged = ClusterGraph.merge([g], [np.array([0, 0, 1])], num_clusters=2)
        assert merged.num_clusters == 2
        assert np.array_equal(merged.internal, [2 + 3 + 4, 1])
        assert merged.total_cut() == 5
        assert out_row(merged, 0) == {1: 5}
        # total weight is conserved through the fold
        assert (
            merged.total_internal() + merged.total_cut()
            == g.total_internal() + g.total_cut()
        )

    def test_duplicate_pairs_sum(self):
        a = ClusterGraph.from_dicts(
            2, internal=np.array([1, 1]), out_edges=[{1: 2}, {}], in_edges=[{}, {0: 2}]
        )
        b = ClusterGraph.from_dicts(
            2, internal=np.array([0, 0]), out_edges=[{1: 7}, {0: 3}],
            in_edges=[{1: 3}, {0: 7}],
        )
        merged = ClusterGraph.merge(
            [a, b], [np.arange(2), np.arange(2)], num_clusters=2
        )
        assert out_row(merged, 0) == {1: 9}
        assert out_row(merged, 1) == {0: 3}
        assert np.array_equal(merged.internal, [1, 1])

    def test_infers_num_clusters(self):
        g, _ = self._two_graphs()
        merged = ClusterGraph.merge([g], [np.arange(g.num_clusters)])
        assert merged.num_clusters == g.num_clusters

    def test_empty_inputs(self):
        merged = ClusterGraph.merge([], [], num_clusters=0)
        assert merged.num_clusters == 0
        assert merged.indices.size == 0

    def test_validates_relabel(self):
        g, _ = self._two_graphs()
        with pytest.raises(ValueError, match="relabel must map"):
            ClusterGraph.merge([g], [np.arange(g.num_clusters - 1)])
        with pytest.raises(ValueError, match="out of range"):
            ClusterGraph.merge(
                [g], [np.arange(g.num_clusters)], num_clusters=g.num_clusters - 1
            )
        with pytest.raises(ValueError, match="relabel maps"):
            ClusterGraph.merge([g], [])


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=60
    ),
    vmax=st.integers(min_value=1, max_value=12),
    split=st.integers(min_value=0, max_value=59),
)
def test_property_merge_of_halves_equals_whole_under_shared_clustering(
    edges, vmax, split
):
    """Splitting a stream in two, building each half's cluster graph under
    the SAME clustering, and merging with identity relabels must equal the
    whole-stream graph — the resolved-edge half of the DESIGN.md §6
    exactness argument."""
    s, clustering = clustered_stream(edges, vmax=vmax)
    whole = build_cluster_graph(s, clustering)
    split = min(split, s.num_edges)
    halves = [
        EdgeStream(s.src[:split], s.dst[:split], s.num_vertices),
        EdgeStream(s.src[split:], s.dst[split:], s.num_vertices),
    ]
    graphs = [build_cluster_graph(h, clustering) for h in halves]
    m = clustering.num_clusters
    merged = ClusterGraph.merge(graphs, [np.arange(m), np.arange(m)], num_clusters=m)
    assert np.array_equal(merged.internal, whole.internal)
    assert np.array_equal(merged.indptr, whole.indptr)
    assert np.array_equal(merged.indices, whole.indices)
    assert np.array_equal(merged.weights, whole.weights)


# --------------------------------------------------------------------- #
# the packed-key grouping against the dict oracle, at two id-space widths
# --------------------------------------------------------------------- #

CSR_FIELDS = (
    "internal", "indptr", "indices", "weights",
    "in_indptr", "in_indices", "in_weights",
)
#: a wider cluster-id space than any test label draws: the same labels
#: grouped over it must give the same rows, the extra clusters empty
SPARSE_M = 1025


def dict_oracle(cu, cv, m):
    """Per-edge dict counting -> the ``from_dicts`` constructor."""
    internal = np.zeros(m, dtype=np.int64)
    out_edges = [dict() for _ in range(m)]
    in_edges = [dict() for _ in range(m)]
    for a, b in zip(cu, cv):
        if a == b:
            internal[a] += 1
        else:
            out_edges[a][b] = out_edges[a].get(b, 0) + 1
            in_edges[b][a] = in_edges[b].get(a, 0) + 1
    return ClusterGraph.from_dicts(m, internal, out_edges, in_edges)


def assert_same_graph(got, want, num_edges):
    assert got.num_clusters == want.num_clusters
    for name in CSR_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name
    assert got.total_cut() == want.total_cut()
    assert got.total_internal() + got.total_cut() == num_edges
    assert got.edge_count_check(num_edges)


def assert_branches_agree(cu, cv, m):
    """The grouping at ``m`` clusters and at ``SPARSE_M`` (the extra
    clusters stay empty), each against its dict oracle — and the two
    against each other on the shared prefix."""
    cu = np.asarray(cu, dtype=np.int64)
    cv = np.asarray(cv, dtype=np.int64)
    assert m * m <= 1 << 20 < SPARSE_M * SPARSE_M and 2 * cu.size < SPARSE_M**2
    dense = cluster_graph_from_labels(cu, cv, m)
    sparse = cluster_graph_from_labels(cu, cv, SPARSE_M)
    assert_same_graph(dense, dict_oracle(cu.tolist(), cv.tolist(), m), cu.size)
    assert_same_graph(
        sparse, dict_oracle(cu.tolist(), cv.tolist(), SPARSE_M), cu.size
    )
    assert np.array_equal(sparse.internal[:m], dense.internal)
    assert not sparse.internal[m:].any()
    for ptr, idx, w in (
        ("indptr", "indices", "weights"),
        ("in_indptr", "in_indices", "in_weights"),
    ):
        assert np.array_equal(getattr(sparse, ptr)[: m + 1], getattr(dense, ptr))
        assert (getattr(sparse, ptr)[m:] == getattr(dense, ptr)[-1]).all()
        assert np.array_equal(getattr(sparse, idx), getattr(dense, idx))
        assert np.array_equal(getattr(sparse, w), getattr(dense, w))


class TestGroupingBranches:
    @pytest.mark.parametrize("m", [1, 5, SPARSE_M])
    def test_empty_input(self, m):
        cg = cluster_graph_from_labels([], [], m)
        assert_same_graph(cg, dict_oracle([], [], m), 0)
        assert cg.indices.size == 0 and not cg.internal.any()

    def test_zero_clusters(self):
        cg = cluster_graph_from_labels([], [], 0)
        assert cg.num_clusters == 0 and cg.indptr.tolist() == [0]

    def test_single_cluster(self):
        # the same labels, confined to cluster 0 of SPARSE_M
        assert_branches_agree([0] * 7, [0] * 7, 1)

    def test_all_internal(self):
        labels = [3, 0, 3, 9, 9, 9, 0]
        assert_branches_agree(labels, labels, 10)

    def test_all_inter(self):
        assert_branches_agree([0, 1, 2, 3, 0, 3], [1, 2, 3, 0, 2, 1], 4)

    def test_duplicates_and_both_directions(self):
        assert_branches_agree([4, 4, 4, 2, 2, 4], [2, 2, 2, 4, 4, 4], 6)

    def test_last_cluster_and_last_key(self):
        # the largest key (m-1, m-1) and the largest off-diagonal keys
        assert_branches_agree([7, 7, 6, 7, 0], [7, 6, 7, 0, 7], 8)

    @pytest.mark.parametrize("m", [46_340, 46_341])
    def test_key_width_boundary(self, m):
        # the key column is int32 while m * m fits (m <= 46340) and int64
        # beyond; exercise the largest keys on both sides
        assert (m * m <= np.iinfo(np.int32).max) == (m == 46_340)
        cu = [m - 1, m - 1, m - 1, 0, m - 2, m - 1]
        cv = [m - 1, m - 2, m - 2, m - 1, m - 1, 0]
        cg = cluster_graph_from_labels(cu, cv, m)
        assert_same_graph(cg, dict_oracle(cu, cv, m), len(cu))

    @pytest.mark.parametrize("m", [46_340, 46_341])
    def test_both_tiers_group_alike_at_both_key_widths(self, m):
        """The compiled ``pack_pairs`` / ``group_keys`` against the numpy
        twins, array for array, on a stream that spans several packing
        chunks: duplicates, reciprocal pairs and diagonal keys near the
        largest key of each width."""
        rng = np.random.default_rng(m)
        n = 3000
        labels = rng.integers(0, m, size=n)
        labels[:40] = m - 1 - np.arange(40) % 3
        src = rng.integers(0, n, size=70_000)
        dst = rng.integers(0, n, size=70_000)
        src[:5000], dst[:5000] = dst[5000:10000], src[5000:10000]  # reciprocal
        src[-3000:] = dst[-3000:] = rng.integers(0, 40, size=3000)  # near the top
        stream = EdgeStream(src, dst, num_vertices=n)
        with kernel_backend("python"):
            want = grouped_cluster_graph(stream, labels, m)
        assert_same_graph(
            want, dict_oracle(labels[src].tolist(), labels[dst].tolist(), m), src.size
        )
        with kernel_backend("auto"):
            got = grouped_cluster_graph(stream, labels, m)
        assert_same_graph(got, want, src.size)

    @pytest.mark.parametrize("num_clusters", [40, SPARSE_M])
    def test_stream_with_self_loops_and_duplicate_edges(self, num_clusters):
        """Through ``build_cluster_graph``: vertex self-loops and repeated
        edges of a stream land on the diagonal / in the run lengths."""
        rng = np.random.default_rng(3)
        n = 3 * num_clusters
        src = rng.integers(0, n, size=400)
        dst = rng.integers(0, n, size=400)
        src = np.concatenate([src, src[:50], np.arange(30)])  # duplicates
        dst = np.concatenate([dst, dst[:50], np.arange(30)])  # self-loops
        stream = EdgeStream(src, dst, num_vertices=n)
        cluster_of = np.arange(n, dtype=np.int64) % num_clusters
        clustering = ClusteringResult(
            cluster_of=cluster_of,
            degree=np.zeros(n, dtype=np.int64),
            volume=np.zeros(num_clusters, dtype=np.int64),
            divided=np.zeros(n, dtype=bool),
            num_clusters=num_clusters,
            max_volume=1,
        )
        cg = build_cluster_graph(stream, clustering)
        oracle = dict_oracle(
            cluster_of[src].tolist(), cluster_of[dst].tolist(), num_clusters
        )
        assert_same_graph(cg, oracle, stream.num_edges)
        assert cg.total_internal() >= 30  # every self-loop is internal


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 12),
    pairs=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(1, 4)),
        max_size=60,
    ),
    internal_only=st.booleans(),
    inter_only=st.booleans(),
)
def test_property_sparse_branch_matches_dense_and_dict_oracle(
    m, pairs, internal_only, inter_only
):
    cu, cv = [], []
    for a, b, repeat in pairs:
        a, b = a % m, b % m
        if internal_only:
            b = a
        elif inter_only and a == b:
            if m == 1:
                continue
            b = (a + 1) % m
        cu += [a] * repeat  # repeat > 1: duplicate edges
        cv += [b] * repeat
    assert_branches_agree(cu, cv, m)


# --------------------------------------------------------------------- #
# pass 2's set-up: the adjacency rows read off the two CSR triples
# --------------------------------------------------------------------- #


def sym_by_radix_group(cg):
    """The symmetrized CSR the game once read (``w(c, n) = out + in``): a
    two-digit radix argsort of all ``2 * nnz`` keys, then a run-length sum."""
    m = cg.num_clusters
    rows = np.concatenate([
        np.repeat(np.arange(m, dtype=np.int64), np.diff(cg.indptr)),
        np.repeat(np.arange(m, dtype=np.int64), np.diff(cg.in_indptr)),
    ])
    cols = np.concatenate([cg.indices, cg.in_indices])
    ws = np.concatenate([cg.weights, cg.in_weights])
    if rows.size == 0:
        return np.zeros(m + 1, dtype=np.int64), cols, ws
    order, ukeys, starts = _radix_group(rows * np.int64(m) + cols, m * m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(ukeys // m, minlength=m), out=indptr[1:])
    return indptr, ukeys % m, np.add.reduceat(ws[order], starts).astype(np.int64)


def adj_table_by_add_at(game):
    """The game's adjacency rows as one 2-D scatter-add over the
    symmetrized CSR."""
    indptr, indices, weights = sym_by_radix_group(game.graph)
    m = game.graph.num_clusters
    adj = np.zeros((m, game.k), dtype=np.float64)
    rows = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))
    np.add.at(adj, (rows, game.assignment[indices]), weights.astype(np.float64))
    return adj


def assert_game_setup_unchanged(cg, k=3, seed=0):
    """``adjacency_rows`` over the game's two CSR triples — one row at a
    time, as the cost vector reads it, and all rows at once, as the
    python ``game_round`` reads them — equals the ``add.at`` oracle."""
    game = ClusterPartitioningGame(cg, k, GameConfig(seed=seed))
    want = adj_table_by_add_at(game)
    m = cg.num_clusters
    for c in range(m):
        row = adjacency_rows(c, c + 1, k, game.assignment, game._csrs)
        assert row.dtype == np.float64 and row.shape == (1, k)
        assert np.array_equal(row[0], want[c]), c
    table = adjacency_rows(0, m, k, game.assignment, game._csrs)
    assert table.dtype == np.float64 and table.flags.c_contiguous
    assert np.array_equal(table, want)


@pytest.mark.parametrize("m", [0, 1, 4])
def test_game_setup_of_an_edgeless_graph(m):
    assert_game_setup_unchanged(cluster_graph_from_labels([], [], m))
    if m:  # internal edges only: still nothing to symmetrize
        assert_game_setup_unchanged(cluster_graph_from_labels([0] * 3, [0] * 3, m))


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 14),
    pairs=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13), st.integers(1, 3)),
        max_size=50,
    ),
    reciprocate=st.sampled_from(["none", "some", "all"]),
    seed=st.integers(0, 50),
)
def test_property_game_setup_matches_the_forms_it_replaced(m, pairs, reciprocate, seed):
    """Reciprocal pairs (a key in both runs), one-directional edges (a key
    in one run only), isolated clusters (ids no pair draws) and m = 1."""
    cu, cv = [], []
    for i, (a, b, repeat) in enumerate(pairs):
        a, b = a % m, b % m
        cu += [a] * repeat
        cv += [b] * repeat
        if reciprocate == "all" or (reciprocate == "some" and i % 2):
            cu.append(b)
            cv.append(a)
    cg = cluster_graph_from_labels(cu, cv, m)
    assert_game_setup_unchanged(cg, k=1 + seed % 4, seed=seed)
    assert_game_adjacency_is_out_plus_in(cg, k=1 + seed % 4, seed=seed)
