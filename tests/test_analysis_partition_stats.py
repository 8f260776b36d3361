"""Tests for the deeper partition diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.partition_stats import (
    communication_matrix,
    mirror_distribution,
    partition_summaries,
    vertex_balance,
)
from repro.graph.stream import EdgeStream
from repro.partitioners import HashingPartitioner
from repro.partitioners.base import PartitionAssignment
from repro.core.partitioner import ClugpPartitioner
from repro.system.placement import build_placement


def make_assignment():
    stream = EdgeStream([0, 1, 2, 0], [1, 2, 3, 3], num_vertices=4)
    return PartitionAssignment(stream, [0, 0, 1, 1], num_partitions=2)


class TestCommunicationMatrix:
    def test_diagonal_zero(self):
        matrix = communication_matrix(make_assignment())
        assert (np.diag(matrix) == 0).all()

    def test_counts_match_mirrors(self):
        a = make_assignment()
        matrix = communication_matrix(a)
        counts = a.vertex_partition_counts()
        total_mirrors = int((counts[counts > 0] - 1).sum())
        assert matrix.sum() == total_mirrors

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
        """The matrix read off the cached replica table == the per-call
        ``np.unique`` of ``v * k + p`` keys it replaced."""
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
        rows = partition_summaries(a)
        assert len(rows) == 2
        assert sum(r.edges for r in rows) == 4
        assert sum(r.masters for r in rows) == 4
        total_replicas = sum(r.replicas for r in rows)
        counts = a.vertex_partition_counts()
        assert total_replicas == counts.sum()

    def test_replicas_property(self):
        a = make_assignment()
        row = partition_summaries(a)[0]
        assert row.replicas == row.masters + row.mirrors
