"""Tests for quality metrics and comparison reports."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    cut_edges,
    mirror_count,
    quality_report,
    replication_factor,
    relative_balance,
)
from repro.analysis.report import ComparisonTable, compare_partitioners, format_table
from repro.graph.stream import EdgeStream
from repro.partitioners import HashingPartitioner, GreedyPartitioner
from repro.partitioners.base import PartitionAssignment


def make_assignment(parts, k=2):
    stream = EdgeStream([0, 1, 2, 0], [1, 2, 3, 3], num_vertices=4)
    return PartitionAssignment(stream, parts, num_partitions=k)


class TestMetrics:
    def test_replication_factor(self):
        a = make_assignment([0, 0, 1, 1])
        assert replication_factor(a) == pytest.approx(1.5)

    def test_relative_balance(self):
        a = make_assignment([0, 0, 0, 1])
        assert relative_balance(a) == pytest.approx(1.5)

    def test_mirror_count(self):
        a = make_assignment([0, 0, 1, 1])
        assert mirror_count(a) == 2  # v0 and v2 have one mirror each

    def test_mirror_count_zero_when_single_partition(self):
        a = make_assignment([0, 0, 0, 0], k=1)
        assert mirror_count(a) == 0

    def test_cut_edges_zero_when_colocated(self):
        # 4-cycle, all edges in one partition: every endpoint is backed by
        # its other incident edge, so no edge forced a new replica
        a = make_assignment([0, 0, 0, 0], k=2)
        assert cut_edges(a) == 0

    def test_cut_edges_counts_forced_replicas(self):
        # path 0-1-2 split across partitions: each edge's endpoints share
        # nothing once the edge's own placement is discounted
        stream = EdgeStream([0, 1], [1, 2], num_vertices=3)
        a = PartitionAssignment(stream, [0, 70], num_partitions=100)
        assert cut_edges(a) == 2

    def test_cut_edges_backed_by_second_edge(self):
        # parallel edges in the same partition back each other up
        stream = EdgeStream([0, 0], [1, 1], num_vertices=2)
        a = PartitionAssignment(stream, [1, 1], num_partitions=2)
        assert cut_edges(a) == 0

    def test_cut_edges_self_loops(self):
        # a lone self-loop is cut; a self-loop backed by another edge is not
        lone = PartitionAssignment(
            EdgeStream([0], [0], num_vertices=1), [0], num_partitions=2
        )
        assert cut_edges(lone) == 1
        backed = PartitionAssignment(
            EdgeStream([0, 0], [0, 1], num_vertices=2), [0, 0], num_partitions=2
        )
        assert cut_edges(backed) == 1  # loop is backed; the (0,1) edge forces v1

    def test_cut_edges_matches_brute_force_past_two_words(self):
        # k = 130 spans three 64-bit words; partitions sit on the word
        # edges so intersections cross them, with self-loops and repeats
        rng = np.random.default_rng(3)
        n, m, k = 150, 400, 130
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        src[:30] = dst[:30]
        part = rng.choice([0, 1, 63, 64, 65, 127, 128, 129], m)
        assignment = PartitionAssignment(EdgeStream(src, dst, n), part, num_partitions=k)
        incident = [[] for _ in range(n)]  # vertex -> its (edge, partition)s
        for i, (a, b, p) in enumerate(zip(src.tolist(), dst.tolist(), part.tolist())):
            incident[a].append((i, p))
            if b != a:
                incident[b].append((i, p))
        # an edge is cut when its endpoints share no partition without it
        expected = sum(
            not {p for j, p in incident[a] if j != i} & {p for j, p in incident[b] if j != i}
            for i, (a, b) in enumerate(zip(src.tolist(), dst.tolist()))
        )
        assert 0 < expected < m
        assert cut_edges(assignment) == expected

    def test_quality_report_fields(self):
        a = make_assignment([0, 0, 1, 1])
        report = quality_report(a, algorithm="test", state_memory_bytes=64)
        assert report.algorithm == "test"
        assert report.num_edges == 4
        assert report.replication_factor == pytest.approx(1.5)
        assert report.state_memory_bytes == 64
        assert report.max_partition_edges == 2

    def test_quality_report_row(self):
        a = make_assignment([0, 1, 0, 1])
        row = quality_report(a, algorithm="x").row()
        assert row[0] == "x" and row[1] == 2


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_comparison_table_best(self):
        table = ComparisonTable(title="t")
        a = make_assignment([0, 0, 1, 1])
        b = make_assignment([0, 0, 0, 0])
        table.add(quality_report(a, algorithm="worse"))
        table.add(quality_report(b, algorithm="better"))
        assert table.best_by_replication().algorithm == "better"
        assert table.get("worse").algorithm == "worse"
        with pytest.raises(KeyError):
            table.get("missing")

    def test_comparison_table_empty_best_raises(self):
        with pytest.raises(ValueError):
            ComparisonTable().best_by_replication()

    def test_str_contains_rows(self):
        table = ComparisonTable(title="hello")
        table.add(quality_report(make_assignment([0, 1, 0, 1]), algorithm="alg"))
        text = str(table)
        assert "hello" in text and "alg" in text

    def test_compare_partitioners_runs_all(self, crawl_stream):
        table = compare_partitioners(
            [HashingPartitioner(4), GreedyPartitioner(4)], crawl_stream
        )
        assert {r.algorithm for r in table.reports} == {"hashing", "greedy"}

    def test_compare_respects_preferred_orders(self, crawl_stream):
        # greedy under its preferred random order avoids the BFS collapse
        table = compare_partitioners([GreedyPartitioner(8)], crawl_stream)
        assert table.get("greedy").relative_balance < 2.0

    def test_compare_without_preferred_orders(self, crawl_stream):
        table = compare_partitioners(
            [HashingPartitioner(4)], crawl_stream, use_preferred_orders=False
        )
        assert table.get("hashing").num_edges == crawl_stream.num_edges
