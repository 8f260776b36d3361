"""Tests for quality metrics and comparison reports."""

import numpy as np
import pytest

from repro.analysis.metrics import mirror_count, quality_report
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
        assert quality_report(a).replication_factor == pytest.approx(1.5)

    def test_relative_balance(self):
        a = make_assignment([0, 0, 0, 1])
        assert quality_report(a).relative_balance == pytest.approx(1.5)

    def test_quality_report_matches_brute_force_past_two_words(self):
        # k = 130 spans three 64-bit words; partitions sit on the word
        # edges, with self-loops and repeated edges
        rng = np.random.default_rng(3)
        n, m, k = 150, 400, 130
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        src[:30] = dst[:30]
        part = rng.choice([0, 1, 63, 64, 65, 127, 128, 129], m)
        report = quality_report(PartitionAssignment(EdgeStream(src, dst, n), part, num_partitions=k))
        hosts = [set() for _ in range(n)]
        for a, b, p in zip(src.tolist(), dst.tolist(), part.tolist()):
            hosts[a].add(p)
            hosts[b].add(p)
        replicas = [len(h) for h in hosts if h]
        assert report.num_vertices == len(replicas)
        assert report.mirrors == sum(replicas) - len(replicas)
        assert report.replication_factor == pytest.approx(sum(replicas) / len(replicas))

    def test_mirror_count(self):
        a = make_assignment([0, 0, 1, 1])
        assert mirror_count(a) == 2  # v0 and v2 have one mirror each

    def test_mirror_count_zero_when_single_partition(self):
        a = make_assignment([0, 0, 0, 0], k=1)
        assert mirror_count(a) == 0

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
