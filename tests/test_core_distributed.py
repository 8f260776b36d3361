"""Tests for the Section III-C distributed CLUGP deployment."""

import numpy as np
import pytest

from conftest import per_shard_rf
from repro.config import ClugpConfig
from repro.core.distributed import (
    DistributedClugpPartitioner,
    balance_quotas,
    _shard_ranges,
    distributed_clugp,
)
from repro.core.partitioner import ClugpPartitioner
from repro.graph.stream import EdgeStream
from repro.partitioners import HashingPartitioner


@pytest.fixture(scope="module")
def stream(crawl_graph):
    return EdgeStream.from_graph(crawl_graph, order="natural")


class TestShardRanges:
    def test_cover_and_disjoint(self):
        ranges = _shard_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_single_node(self):
        assert _shard_ranges(5, 1) == [(0, 5)]

    def test_equal_split(self):
        ranges = _shard_ranges(8, 4)
        assert all(stop - start == 2 for start, stop in ranges)


class TestDistributedClugp:
    # 3 nodes cut the stream into unequal shards; 8 leaves each node few edges
    @pytest.mark.parametrize("num_nodes", [1, 3, 4, 8])
    def test_valid_global_assignment(self, stream, num_nodes):
        result = distributed_clugp(stream, 8, num_nodes=num_nodes)
        assert len(result.nodes) == num_nodes
        a = result.assignment
        assert a.edge_partition.shape == (stream.num_edges,)
        assert a.edge_partition.min() >= 0 and a.edge_partition.max() < 8
        assert a.partition_sizes().sum() == stream.num_edges

    def test_single_node_bit_identical_to_single_machine(self, stream):
        # the protocol with one node degenerates exactly: identity
        # relabel, no boundary vertices, a warm-started refinement game
        # that proposes zero moves, and a quota equal to the uniform cap
        single = ClugpPartitioner(8, seed=3).partition(stream)
        merged = distributed_clugp(stream, 8, num_nodes=1, seed=3)
        assert np.array_equal(
            single.edge_partition, merged.assignment.edge_partition
        )
        assert merged.merge.game_moves == 0
        assert merged.merge.num_boundary_vertices == 0
        assert merged.merge.num_unresolved_edges == 0

    def test_single_node_identity_other_seeds_and_k(self, stream):
        for seed, k in ((0, 4), (7, 16)):
            single = ClugpPartitioner(k, seed=seed).partition(stream)
            merged = distributed_clugp(stream, k, num_nodes=1, seed=seed)
            assert np.array_equal(
                single.edge_partition, merged.assignment.edge_partition
            )

    def test_node_reports(self, stream):
        result = distributed_clugp(stream, 8, num_nodes=4)
        assert len(result.nodes) == 4
        assert sum(n.num_edges for n in result.nodes) == stream.num_edges
        assert all(n.num_clusters > 0 for n in result.nodes)
        # a node's seconds are its two rounds plus its pass-3 probe + commit
        assert all(0.0 < n.transform_seconds < n.seconds for n in result.nodes)

    def test_rejects_nonpositive_chunk_size(self, stream):
        with pytest.raises(ValueError, match="chunk_size"):
            distributed_clugp(stream, 8, num_nodes=2, chunk_size=0)

    def test_quality_stays_competitive(self, stream):
        # must stay well below hashing (the sanity floor for any
        # clustering-based approach)
        dist = distributed_clugp(stream, 16, num_nodes=4)
        rf_hash = HashingPartitioner(16).partition(stream).replication_factor()
        assert dist.assignment.replication_factor() < rf_hash

    def test_beats_per_shard_concatenation_on_bench_fixture(self, stream):
        for num_nodes in (2, 4, 8):
            mer = distributed_clugp(stream, 8, num_nodes=num_nodes)
            assert mer.assignment.replication_factor() <= per_shard_rf(
                stream, 8, num_nodes
            )

    @pytest.mark.parametrize("num_nodes", [2, 4, 8])
    def test_balance_strictly_conforms(self, stream, num_nodes):
        # the quota exchange caps every partition at the *global* L_max,
        # so the protocol holds tau exactly (plus ceil rounding) at every
        # node count, unlike per-shard pipelines' rounding slack
        result = distributed_clugp(
            stream, 8, num_nodes=num_nodes, config=ClugpConfig(imbalance_factor=1.05),
        )
        cap = int(np.ceil(1.05 * stream.num_edges / 8))
        assert int(result.assignment.partition_sizes().max()) <= cap

    def test_rejects_too_many_nodes(self):
        tiny = EdgeStream([0], [1], num_vertices=2)
        with pytest.raises(ValueError, match="num_nodes"):
            distributed_clugp(tiny, 2, num_nodes=5)

    def test_persistent_backend_matches_thread(self, stream):
        thread = distributed_clugp(stream, 8, num_nodes=3, seed=2, backend="thread")
        persistent = distributed_clugp(
            stream, 8, num_nodes=3, seed=2, backend="persistent"
        )
        assert np.array_equal(
            thread.assignment.edge_partition, persistent.assignment.edge_partition
        )

    def test_stage_walls_and_critical_path(self, stream):
        result = distributed_clugp(stream, 8, num_nodes=4)
        times = result.assignment.stage_times
        for stage in ("shard", "merge", "game", "transform"):
            assert stage in times
        assert times.total == pytest.approx(
            times["shard"] + times["merge"] + times["game"] + times["transform"]
        )
        expected_wall = (
            times.walls["shard"]
            + times["merge"]
            + times["game"]
            + times.walls["transform"]
        )
        assert times.walls["critical_path"] == pytest.approx(expected_wall)
        assert result.assignment.wall_time() == pytest.approx(expected_wall)
        # walls are maxima over concurrent nodes: never above summed work
        assert times.walls["shard"] <= times["shard"] + 1e-9
        assert times.walls["transform"] <= times["transform"] + 1e-9

    def test_single_node_wall_equals_total(self, stream):
        result = distributed_clugp(stream, 8, num_nodes=1)
        times = result.assignment.stage_times
        assert times.walls["critical_path"] == pytest.approx(times.total)
        assert result.assignment.wall_time() == pytest.approx(times.total)

    @pytest.mark.parametrize("num_nodes", [2, 4])
    def test_merge_report_wire_bytes(self, stream, num_nodes):
        result = distributed_clugp(stream, 8, num_nodes=num_nodes)
        m = result.merge
        assert m.merge_bytes == sum(n.summary_bytes for n in result.nodes)
        assert m.merge_bytes > 0
        assert m.broadcast_bytes > 0
        # 2 exchanges * nodes * k * int64
        assert m.quota_bytes == 2 * num_nodes * 8 * 8
        assert m.num_boundary_vertices > 0
        assert m.num_global_clusters == sum(n.num_clusters for n in result.nodes)

    @pytest.mark.parametrize("backend", ["thread", "persistent"])
    def test_to_dict_shape(self, stream, backend):
        result = distributed_clugp(stream, 8, num_nodes=2, backend=backend)
        d = result.to_dict()
        assert d["backend"] == backend
        assert d["num_nodes"] == 2
        assert d["replication_factor"] == pytest.approx(
            result.assignment.replication_factor()
        )
        assert set(d["stage_seconds"]) == {"shard", "merge", "game", "transform"}
        assert d["merge"]["num_global_clusters"] > 0
        assert len(d["nodes"]) == 2
        import json

        json.dumps(d)  # must be JSON-serializable as-is

    def test_summary_mentions_protocol(self, stream):
        result = distributed_clugp(stream, 8, num_nodes=2)
        text = result.summary()
        assert "global clusters" in text and "boundary" in text and "RF=" in text

    def test_merged_is_the_one_mode(self, stream):
        # callers may still name the protocol
        named = distributed_clugp(stream, 8, num_nodes=2, merge_mode="merged")
        default = distributed_clugp(stream, 8, num_nodes=2)
        assert np.array_equal(
            named.assignment.edge_partition, default.assignment.edge_partition
        )

    @pytest.mark.parametrize("mode", ["independent", "bogus", "Merged"])
    def test_rejects_other_merge_modes(self, stream, mode):
        # the refusal names the one value that is left
        with pytest.raises(ValueError, match="merge_mode must be 'merged'"):
            distributed_clugp(stream, 8, num_nodes=2, merge_mode=mode)

    def test_rejects_unknown_backend(self, stream):
        with pytest.raises(ValueError, match="backend"):
            distributed_clugp(stream, 8, num_nodes=2, backend="mpi")
        # one process transport remains; the refusal names both backends
        with pytest.raises(ValueError, match="'thread', 'persistent'.*'process'"):
            distributed_clugp(stream, 8, num_nodes=2, backend="process")


class TestBalanceQuotas:
    def test_columns_sum_to_cap(self):
        loads = np.array([[10, 0, 5], [0, 12, 5]], dtype=np.int64)
        cap = 9
        quotas = balance_quotas(loads, cap)
        assert (quotas.sum(axis=0) == cap).all()

    def test_rows_cover_each_shard(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            loads = rng.integers(0, 50, size=(n, k)).astype(np.int64)
            total = int(loads.sum())
            cap = max(1, int(np.ceil(1.05 * total / k)))
            quotas = balance_quotas(loads, cap)
            assert (quotas.sum(axis=0) <= cap).all()
            assert (quotas.sum(axis=1) >= loads.sum(axis=1)).all()
            assert (quotas >= 0).all()

    def test_single_node_gets_uniform_cap(self):
        loads = np.array([[30, 1, 2]], dtype=np.int64)
        quotas = balance_quotas(loads, 12)
        assert (quotas[0] == 12).all()

    def test_no_overfull_keeps_demands(self):
        loads = np.array([[3, 4], [2, 1]], dtype=np.int64)
        quotas = balance_quotas(loads, 10)
        assert (quotas >= loads).all()
        assert (quotas.sum(axis=0) == 10).all()


class TestPartitionerInterface:
    def test_registry_name(self):
        from repro.partitioners.registry import make_partitioner

        p = make_partitioner("clugp-dist", 8, num_nodes=2)
        assert isinstance(p, DistributedClugpPartitioner)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"backend": "bogus"}, "backend must be one of .*'thread', 'persistent'"),
            ({"backend": "process"}, "backend must be one of .*'thread', 'persistent'"),
        ],
        ids=["backend", "process"],
    )
    def test_constructor_rejects_unknown_backend(self, kwargs, match):
        """Refused at construction, with distributed_clugp's message —
        not later, inside partition()."""
        with pytest.raises(ValueError, match=match):
            DistributedClugpPartitioner(8, num_nodes=2, **kwargs)

    def test_constructor_takes_no_merge_mode(self):
        with pytest.raises(TypeError, match="merge_mode"):
            DistributedClugpPartitioner(8, num_nodes=2, merge_mode="merged")

    def test_runs_the_merged_protocol(self, stream):
        p = DistributedClugpPartitioner(8, seed=1, num_nodes=3)
        assignment = p.partition(stream)
        direct = distributed_clugp(stream, 8, num_nodes=3, seed=1)
        assert np.array_equal(assignment.edge_partition, direct.assignment.edge_partition)
        assert p.last_result.merge.num_global_clusters > 0

    def test_partition_and_diagnostics(self, stream):
        p = DistributedClugpPartitioner(8, num_nodes=4)
        assignment = p.partition(stream)
        assert assignment.num_partitions == 8
        assert p.last_result is not None
        assert len(p.last_result.nodes) == 4

    def test_deterministic(self, stream):
        a = DistributedClugpPartitioner(8, seed=2, num_nodes=3).partition(stream)
        b = DistributedClugpPartitioner(8, seed=2, num_nodes=3).partition(stream)
        assert np.array_equal(a.edge_partition, b.edge_partition)
