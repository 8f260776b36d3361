"""Behavioural tests for the five streaming baselines (Table I)."""

import numpy as np
import pytest

from repro.graph.stream import EdgeStream
from repro.partitioners import (
    DBHPartitioner,
    GreedyPartitioner,
    HashingPartitioner,
    HDRFPartitioner,
    MintPartitioner,
)

ALL_CLASSES = [
    HashingPartitioner,
    DBHPartitioner,
    GreedyPartitioner,
    HDRFPartitioner,
    MintPartitioner,
]


@pytest.fixture(scope="module")
def stream(crawl_graph):
    return EdgeStream.from_graph(crawl_graph, order="random", seed=1)


@pytest.mark.parametrize("cls", ALL_CLASSES)
class TestCommonContract:
    def test_valid_assignment(self, cls, stream):
        assignment = cls(8).partition(stream)
        assert assignment.edge_partition.shape == (stream.num_edges,)
        assert assignment.edge_partition.min() >= 0
        assert assignment.edge_partition.max() < 8

    def test_deterministic(self, cls, stream):
        a = cls(8, seed=3).partition(stream).edge_partition
        b = cls(8, seed=3).partition(stream).edge_partition
        assert np.array_equal(a, b)

    def test_single_partition_trivial(self, cls, stream):
        assignment = cls(1).partition(stream)
        assert (assignment.edge_partition == 0).all()
        assert assignment.replication_factor() == 1.0


class TestHashing:
    def test_zero_state(self, stream):
        assert HashingPartitioner(8).state_memory_bytes(stream) == 0

    def test_seed_changes_placement(self, stream):
        a = HashingPartitioner(8, seed=0).partition(stream).edge_partition
        b = HashingPartitioner(8, seed=1).partition(stream).edge_partition
        assert not np.array_equal(a, b)

    def test_roughly_balanced(self, stream):
        assignment = HashingPartitioner(8).partition(stream)
        assert assignment.relative_balance() < 1.3


class TestDBH:
    def test_better_than_hashing_on_powerlaw(self, stream):
        rf_hash = HashingPartitioner(16).partition(stream).replication_factor()
        rf_dbh = DBHPartitioner(16).partition(stream).replication_factor()
        assert rf_dbh < rf_hash  # DBH's theoretical edge on skewed graphs

    def test_exact_degrees_variant(self, stream):
        exact = DBHPartitioner(8, exact_degrees=True)
        assert exact.partition(stream).edge_partition.max() < 8

    def test_exact_anchors_low_degree_endpoint(self):
        # star: all leaves have degree 1, hub degree 4 -> each edge hashes
        # its leaf, so the hub is cut and each leaf stays whole
        stream = EdgeStream([0, 0, 0, 0], [1, 2, 3, 4], num_vertices=5)
        assignment = DBHPartitioner(4, exact_degrees=True).partition(stream)
        counts = assignment.vertex_partition_counts()
        assert (counts[1:] == 1).all()

    def test_state_memory_scales_with_vertices(self, stream):
        assert DBHPartitioner(8).state_memory_bytes(stream) == stream.num_vertices * 8


class TestGreedy:
    def test_colocates_shared_endpoint(self):
        stream = EdgeStream([0, 0, 0], [1, 2, 3], num_vertices=4)
        assignment = GreedyPartitioner(4).partition(stream)
        # all edges share vertex 0, so greedy keeps them together
        assert np.unique(assignment.edge_partition).size == 1

    def test_balances_disjoint_edges(self):
        stream = EdgeStream([0, 2, 4, 6], [1, 3, 5, 7], num_vertices=8)
        assignment = GreedyPartitioner(4).partition(stream)
        assert assignment.partition_sizes().max() == 1

    def test_quality_beats_hashing(self, stream):
        rf_greedy = GreedyPartitioner(16).partition(stream).replication_factor()
        rf_hash = HashingPartitioner(16).partition(stream).replication_factor()
        assert rf_greedy < rf_hash


class TestHDRF:
    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            HDRFPartitioner(4, lambda_bal=-1.0)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0])
    def test_rejects_nonpositive_epsilon(self, epsilon):
        # eps = 0 divides by zero at the first edge (all loads equal) — the
        # constructor closes the gap for every path at once
        with pytest.raises(ValueError, match="epsilon"):
            HDRFPartitioner(4, epsilon=epsilon)

    @pytest.mark.parametrize("field", ["lambda_bal", "epsilon"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_bad_knobs(self, field, value):
        # a nan or infinite knob once put every edge on partition 0
        with pytest.raises(ValueError, match=field):
            HDRFPartitioner(4, **{field: value})

    def test_higher_lambda_improves_balance(self, stream):
        loose = HDRFPartitioner(8, lambda_bal=0.1).partition(stream)
        tight = HDRFPartitioner(8, lambda_bal=4.0).partition(stream)
        assert tight.relative_balance() <= loose.relative_balance() + 0.05

    def test_quality_beats_dbh(self, stream):
        rf_hdrf = HDRFPartitioner(16).partition(stream).replication_factor()
        rf_dbh = DBHPartitioner(16).partition(stream).replication_factor()
        assert rf_hdrf < rf_dbh

    def test_cuts_high_degree_first(self):
        # hub 0 with 6 leaves + one leaf-leaf edge; HDRF should replicate
        # the hub rather than the low-degree leaves
        stream = EdgeStream(
            [0, 0, 0, 0, 0, 0, 1], [1, 2, 3, 4, 5, 6, 2], num_vertices=7
        )
        assignment = HDRFPartitioner(3, lambda_bal=2.0).partition(stream)
        counts = assignment.vertex_partition_counts()
        assert counts[0] == counts.max()


class TestMint:
    def test_batch_boundaries_respected(self, stream):
        assignment = MintPartitioner(8, batch_size=100).partition(stream)
        assert assignment.edge_partition.size == stream.num_edges

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            MintPartitioner(4, batch_size=0)

    def test_rejects_fractional_batch_size(self):
        # 2.5 once ran as batches of 2
        with pytest.raises(ValueError, match="batch_size"):
            MintPartitioner(4, batch_size=2.5)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            MintPartitioner(4, alpha=-1)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])  # nan once put every edge on 0
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            MintPartitioner(4, alpha=alpha)

    @pytest.mark.parametrize("max_rounds", [-3, 1.5])  # -3 once ran as 0 rounds
    def test_rejects_bad_max_rounds(self, max_rounds):
        with pytest.raises(ValueError, match="max_rounds"):
            MintPartitioner(4, max_rounds=max_rounds)

    def test_zero_rounds_is_accepted(self, stream):
        # 0 means no best-response round: every edge keeps its hashed start
        assignment = MintPartitioner(8, max_rounds=0).partition(stream)
        assert assignment.edge_partition.size == stream.num_edges

    def test_quality_between_hashing_and_hdrf(self, stream):
        rf_mint = MintPartitioner(16).partition(stream).replication_factor()
        rf_hash = HashingPartitioner(16).partition(stream).replication_factor()
        assert rf_mint < rf_hash  # Table I: Mint is Medium, Hashing is Low

    def test_balanced(self, stream):
        assignment = MintPartitioner(8).partition(stream)
        assert assignment.relative_balance() < 1.2

    def test_preferred_order_is_crawl(self):
        assert MintPartitioner(4).preferred_order == "natural"
