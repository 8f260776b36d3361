"""Cross-module integration tests: every partitioner on every graph family,
plus the paper's headline quality claims at bench scale.
"""

import time

import numpy as np
import pytest

from repro import (
    EdgeStream,
    compare_partitioners,
    load_dataset,
    make_partitioner,
)
from repro.graph.generators import (
    erdos_renyi_graph,
    planted_partition_graph,
    star_graph,
)
from repro.system import LocalGasRuntime, pagerank

ALL_ALGORITHMS = [
    "hashing",
    "dbh",
    "greedy",
    "hdrf",
    "mint",
    "clugp",
    "clugp-g",
]


def graph_families():
    return {
        "web": load_dataset("uk", scale=0.05, seed=1),
        "social": load_dataset("twitter", scale=0.05, seed=1),
        "random": erdos_renyi_graph(300, 2500, seed=1),
        "community": planted_partition_graph(8, 40, p_in=0.15, p_out=0.01, seed=1),
        "star": star_graph(300),
    }


@pytest.mark.parametrize("family", sorted(graph_families()))
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_every_partitioner_on_every_family(family, algorithm):
    graph = graph_families()[family]
    stream = EdgeStream.from_graph(graph, order="natural")
    partitioner = make_partitioner(algorithm, 8, seed=0)
    if partitioner.preferred_order != "natural":
        stream = stream.reordered(partitioner.preferred_order, seed=0)
    assignment = partitioner.partition(stream)
    # universal invariants of a vertex-cut partitioning (Problem 1)
    assert assignment.edge_partition.shape == (stream.num_edges,)
    assert assignment.edge_partition.min() >= 0
    assert assignment.edge_partition.max() < 8
    assert assignment.partition_sizes().sum() == stream.num_edges
    assert assignment.replication_factor() >= 1.0
    counts = assignment.vertex_partition_counts()
    assert counts.max() <= 8


class TestHeadlineClaims:
    """The paper's main quality orderings at a small but non-trivial scale."""

    @pytest.fixture(scope="class")
    def stream(self):
        return EdgeStream.from_graph(load_dataset("uk", scale=0.15, seed=2), order="natural")

    @pytest.fixture(scope="class")
    def table(self, stream):
        parts = [
            make_partitioner(n, 16, seed=0)
            for n in ("hashing", "dbh", "greedy", "hdrf", "mint", "clugp")
        ]
        return compare_partitioners(parts, stream)

    def test_clugp_has_lowest_replication_factor(self, table):
        assert table.best_by_replication().algorithm == "clugp"

    def test_hashing_has_highest_replication_factor(self, table):
        worst = max(table.reports, key=lambda r: r.replication_factor)
        assert worst.algorithm == "hashing"

    def test_table1_quality_classes(self, table):
        # Table I: {Greedy, HDRF, CLUGP} high quality; {Hashing, DBH} low;
        # Mint in between
        rf = {r.algorithm: r.replication_factor for r in table.reports}
        assert rf["clugp"] < rf["mint"] < rf["hashing"]
        assert rf["hdrf"] < rf["dbh"]
        assert rf["greedy"] < rf["dbh"]

    def test_all_balanced_within_tau(self, table):
        for report in table.reports:
            assert report.relative_balance <= 1.5

    def test_clugp_is_faster_than_hdrf(self, stream):
        # Figure 10: the three-pass CLUGP beats the one-pass heuristics on
        # total runtime because it never scores all k partitions per edge.
        # HDRF as published does; its compiled core scores only A(u) | A(v)
        # (DESIGN.md §4.2), so the claim is timed on the two per-edge
        # references, each in its preferred order: the best of five
        # alternating runs, each timed in this process's CPU seconds — a
        # wall clock also counts the time a competing process holds the
        # core, and one run of ~0.1 s moves by half with the host's load
        runs = {}
        for name in ("hdrf", "clugp"):
            partitioner = make_partitioner(name, 16, seed=0)
            s = stream
            if partitioner.preferred_order != "natural":
                s = stream.reordered(partitioner.preferred_order, seed=0)
            runs[name] = (partitioner, s)
        seconds = {name: float("inf") for name in runs}
        for _ in range(5):
            for name, (partitioner, s) in runs.items():
                start = time.process_time()
                partitioner.partition_per_edge(s)
                seconds[name] = min(seconds[name], time.process_time() - start)
        assert seconds["clugp"] < seconds["hdrf"]


class TestEndToEndSystem:
    def test_partition_then_pagerank_consistency(self):
        graph = load_dataset("webbase", scale=0.05, seed=3)
        stream = EdgeStream.from_graph(graph, order="natural")
        ranks = {}
        for name in ("hashing", "clugp"):
            partitioner = make_partitioner(name, 4, seed=0)
            s = stream
            if partitioner.preferred_order != "natural":
                s = stream.reordered(partitioner.preferred_order, seed=0)
            assignment = partitioner.partition(s)
            values, cost = pagerank(LocalGasRuntime(assignment), max_supersteps=20)
            ranks[name] = values
            assert cost.total_messages > 0
        # algorithm values are partitioning-invariant
        assert np.allclose(ranks["hashing"], ranks["clugp"])

    def test_better_partitioning_less_communication(self):
        graph = load_dataset("it", scale=0.1, seed=4)
        stream = EdgeStream.from_graph(graph, order="natural")
        volumes = {}
        for name in ("hashing", "clugp"):
            partitioner = make_partitioner(name, 16, seed=0)
            s = stream
            if partitioner.preferred_order != "natural":
                s = stream.reordered(partitioner.preferred_order, seed=0)
            assignment = partitioner.partition(s)
            _, cost = pagerank(LocalGasRuntime(assignment), max_supersteps=10)
            volumes[name] = cost.total_bytes
        assert volumes["clugp"] < volumes["hashing"]
