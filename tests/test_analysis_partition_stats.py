"""Per-partition statistics of a deployment, read off the slot index.

The mirror -> master traffic between partitions comes from
:class:`~repro.system.placement.ReplicaRoutes`, the replicas each
partition hosts from ``LocalIndex.part_indptr``, each partition's edges,
masters and mirrors from :meth:`LocalIndex.active_counts` and the routes'
``mirror_indptr``, and the ``|P(v)|`` histogram from the placement's
replica counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.stream import EdgeStream
from repro.partitioners import HashingPartitioner
from repro.partitioners.base import PartitionAssignment
from repro.core.partitioner import ClugpPartitioner
from repro.system.placement import build_local_index, build_placement


def make_assignment():
    stream = EdgeStream([0, 1, 2, 0], [1, 2, 3, 3], num_vertices=4)
    return PartitionAssignment(stream, [0, 0, 1, 1], num_partitions=2)


def communication_matrix(assignment) -> np.ndarray:
    """``M[i, j]`` = gather messages mirror partition ``i`` sends master
    partition ``j`` in a full superstep: one per routing-table row."""
    index = build_local_index(assignment)
    routes = index.routes
    k = index.num_partitions
    mirror_part = np.repeat(np.arange(k), np.diff(routes.mirror_indptr))
    slot_part = lambda slots: np.searchsorted(index.part_indptr, slots, side="right") - 1
    assert np.array_equal(slot_part(routes.mirror_slot), mirror_part)
    matrix = np.zeros((k, k), dtype=np.int64)
    np.add.at(matrix, (mirror_part, slot_part(routes.master_slot)), 1)
    return matrix


def vertex_balance(assignment) -> float:
    """``k * max(replicas hosted by a partition) / total replicas``."""
    hosted = np.diff(build_local_index(assignment).part_indptr)
    total = hosted.sum()
    return 1.0 if total == 0 else float(assignment.num_partitions * hosted.max() / total)


def mirror_distribution(assignment) -> np.ndarray:
    """Entry ``r`` counts the vertices replicated into exactly ``r``
    partitions."""
    counts = build_placement(assignment).replica_counts
    return np.bincount(counts[counts > 0], minlength=assignment.num_partitions + 1)


class TestCommunicationMatrix:
    def test_diagonal_zero(self):
        matrix = communication_matrix(make_assignment())
        assert (np.diag(matrix) == 0).all()

    def test_counts_match_mirrors(self):
        a = make_assignment()
        matrix = communication_matrix(a)
        counts = a.vertex_partition_counts()
        total_mirrors = int((counts[counts > 0] - 1).sum())
        assert matrix.sum() == total_mirrors == build_placement(a).total_mirrors

    def test_single_partition_silent(self):
        stream = EdgeStream([0, 1], [1, 2], num_vertices=3)
        a = PartitionAssignment(stream, [0, 0], num_partitions=1)
        assert communication_matrix(a).sum() == 0

    def test_lower_rf_less_traffic(self, crawl_stream):
        bad = HashingPartitioner(8).partition(crawl_stream)
        good = ClugpPartitioner(8).partition(crawl_stream)
        assert communication_matrix(good).sum() < communication_matrix(bad).sum()

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 20).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, 70),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=50),
            )
        ),
        st.randoms(use_true_random=False),
    )
    def test_equals_the_unique_key_formula(self, data, rng):
        """The matrix read off the routing table == the ``np.unique`` of
        ``v * k + p`` keys with each replica's vertex's master."""
        n, k, edges = data
        stream = EdgeStream([u for u, _ in edges], [v for _, v in edges], num_vertices=n)
        a = PartitionAssignment(stream, [rng.randrange(k) for _ in edges], num_partitions=k)
        keys = np.concatenate([stream.src * k + a.edge_partition, stream.dst * k + a.edge_partition])
        present = np.unique(keys)
        vertices, partitions = present // k, present % k
        masters = build_placement(a).master[vertices]
        mirror = partitions != masters
        expect = np.zeros((k, k), dtype=np.int64)
        np.add.at(expect, (partitions[mirror], masters[mirror]), 1)
        got = communication_matrix(a)
        assert got.dtype == expect.dtype and np.array_equal(got, expect)


class TestVertexBalance:
    def test_balanced_case(self):
        stream = EdgeStream([0, 2], [1, 3], num_vertices=4)
        a = PartitionAssignment(stream, [0, 1], num_partitions=2)
        assert vertex_balance(a) == pytest.approx(1.0)

    def test_skewed_case(self):
        stream = EdgeStream([0, 1, 2], [1, 2, 3], num_vertices=4)
        a = PartitionAssignment(stream, [0, 0, 0], num_partitions=2)
        assert vertex_balance(a) == pytest.approx(2.0)

    def test_empty(self):
        stream = EdgeStream([], [], num_vertices=0)
        a = PartitionAssignment(stream, [], num_partitions=2)
        assert vertex_balance(a) == 1.0


class TestMirrorDistribution:
    def test_histogram_sums_to_active_vertices(self):
        a = make_assignment()
        hist = mirror_distribution(a)
        assert hist.sum() == 4
        assert hist[1] == 2 and hist[2] == 2

    def test_no_entry_beyond_k(self, crawl_stream):
        a = HashingPartitioner(4).partition(crawl_stream)
        hist = mirror_distribution(a)
        assert hist.shape == (5,)
        assert hist[0] == 0  # index 0 = inactive vertices, excluded


class TestPartitionSummaries:
    def test_rows_consistent(self):
        a = make_assignment()
        index = build_local_index(a)
        edges, masters = index.active_counts(None)
        assert edges.tolist() == [2, 2]
        assert masters.sum() == 4  # one master per active vertex
        assert np.diff(index.part_indptr).sum() == a.vertex_partition_counts().sum()

    def test_replicas_property(self):
        """Replicas hosted = masters + mirrors, partition by partition, and
        the full-frontier counts are the ``None`` shortcut's."""
        index = build_local_index(make_assignment())
        every = np.ones(index.vertices.size, dtype=bool)
        edges, masters = index.active_counts(every)
        mirrors = np.diff(index.routes.mirror_indptr)
        assert np.array_equal(np.diff(index.part_indptr), masters + mirrors)
        for want, have in zip(index.active_counts(None), (edges, masters)):
            assert np.array_equal(want, have)
