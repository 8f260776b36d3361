"""Tests for PartitionAssignment and the EdgePartitioner interface."""

import pytest

from repro.graph.stream import EdgeStream
from repro.partitioners.base import EdgePartitioner, PartitionAssignment


def make_assignment():
    # 4 edges over 4 vertices, 2 partitions
    stream = EdgeStream([0, 1, 2, 0], [1, 2, 3, 3], num_vertices=4)
    return PartitionAssignment(stream, [0, 0, 1, 1], num_partitions=2)


class TestValidation:
    def test_rejects_wrong_length(self):
        stream = EdgeStream([0], [1], num_vertices=2)
        with pytest.raises(ValueError, match="one entry per edge"):
            PartitionAssignment(stream, [0, 1], 2)

    def test_rejects_out_of_range_partition(self):
        stream = EdgeStream([0], [1], num_vertices=2)
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            PartitionAssignment(stream, [5], 2)

    def test_rejects_negative_partition(self):
        stream = EdgeStream([0], [1], num_vertices=2)
        with pytest.raises(ValueError):
            PartitionAssignment(stream, [-1], 2)

    def test_rejects_bad_k(self):
        stream = EdgeStream([0], [1], num_vertices=2)
        with pytest.raises(ValueError):
            PartitionAssignment(stream, [0], 0)


class TestMetrics:
    def test_partition_sizes(self):
        a = make_assignment()
        assert a.partition_sizes().tolist() == [2, 2]

    def test_vertex_partition_counts(self):
        a = make_assignment()
        # v0: edges 0 (p0) and 3 (p1) -> 2; v1: edges 0,1 (p0) -> 1
        # v2: edges 1 (p0), 2 (p1) -> 2; v3: edges 2,3 (p1) -> 1
        assert a.vertex_partition_counts().tolist() == [2, 1, 2, 1]

    def test_replication_factor(self):
        a = make_assignment()
        assert a.replication_factor() == pytest.approx(6 / 4)

    def test_replication_factor_ignores_isolated(self):
        stream = EdgeStream([0], [1], num_vertices=10)
        a = PartitionAssignment(stream, [0], 2)
        assert a.replication_factor() == 1.0

    def test_relative_balance_perfect(self):
        a = make_assignment()
        assert a.relative_balance() == pytest.approx(1.0)

    def test_relative_balance_skewed(self):
        stream = EdgeStream([0, 1, 2, 3], [1, 2, 3, 0], num_vertices=4)
        a = PartitionAssignment(stream, [0, 0, 0, 1], 2)
        assert a.relative_balance() == pytest.approx(2 * 3 / 4)

    def test_vertex_sets(self):
        a = make_assignment()
        sets = [set(), set()]
        for u, v, p in zip(a.stream.src.tolist(), a.stream.dst.tolist(), a.edge_partition.tolist()):
            sets[p] |= {u, v}
        assert sets == [{0, 1, 2}, {0, 2, 3}]
        expect = [sum(x in s for s in sets) for x in range(4)]
        assert a.vertex_partition_counts().tolist() == expect

    def test_rf_at_least_one_for_any_assignment(self):
        a = make_assignment()
        assert a.replication_factor() >= 1.0


class _ConstantPartitioner(EdgePartitioner):
    name = "constant"

    def _chunk(self, u, v, out):
        out[:] = 0


class TestInterface:
    def test_partition_records_time(self):
        stream = EdgeStream([0, 1], [1, 0], num_vertices=2)
        p = _ConstantPartitioner(4)
        result = p.partition(stream)
        assert "total" in result.stage_times
        assert result.total_time() >= 0.0

    @pytest.mark.parametrize("chunk_size", [0, -5, 2.5])
    def test_partition_validates_chunk_size(self, chunk_size):
        stream = EdgeStream([0, 1], [1, 0], num_vertices=2)
        with pytest.raises(ValueError, match="chunk_size"):
            _ConstantPartitioner(4).partition(stream, chunk_size=chunk_size)

    def test_default_state_memory_zero(self):
        stream = EdgeStream([0], [1], num_vertices=2)
        assert _ConstantPartitioner(2).state_memory_bytes(stream) == 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            _ConstantPartitioner(0)

    def test_default_preferred_order(self):
        assert _ConstantPartitioner(2).preferred_order == "random"
