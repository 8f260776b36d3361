"""Persistent worker runtime: lifecycle, identity, chaos, accounting.

Acceptance gates covered here:

* ``backend="persistent"``, spawned per call or resident, is
  bit-identical to ``thread`` at num_nodes in {1, 3, 4, 8} — one protocol
  function, two transports;
* zero pickled ndarray bytes ever cross the ingest plane, and the pass-3
  result comes back through each worker's result segment (grown when a
  larger shard arrives, re-attached by a respawned worker);
* every shared-memory segment — two per fed worker — is unlinked on
  close, including after injected worker crashes (``/dev/shm``
  cleanliness);
* crash / hang / corrupt faults on every stage, the round-2 ``attribute``
  stage included, heal to the fault-free bits; faults that never heal
  raise :class:`ShardTaskError` naming the stage and the worker, and
  leave a resident pool that serves its next call;
* resident workers survive across calls (same PIDs, same bits).
"""

from __future__ import annotations

import os
import secrets
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.config import ClugpConfig, ReliabilityConfig
from repro.core.distributed import DistributedClugpPartitioner, distributed_clugp
from repro.distributed import (
    SHM_PREFIX,
    EdgeChunkRing,
    PersistentRuntime,
    RingWriter,
    leaked_segments,
    ndarray_nbytes,
)
from repro.distributed.shm import ResultSegment, create_segment, unlink_segment
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.reliability.faults import FaultInjector
from repro.reliability.retry import RetryPolicy, ShardTaskError


@pytest.fixture(scope="module")
def ident_stream() -> EdgeStream:
    """~3.2K-edge crawl used for the thread-vs-persistent identity matrix."""
    graph = web_crawl_graph(400, avg_out_degree=8.0, host_size=25, seed=3)
    return EdgeStream.from_graph(graph, order="natural")


def _assert_shm_clean() -> None:
    assert leaked_segments() == [], "shared-memory segments leaked into /dev/shm"


# --------------------------------------------------------------------- #
# shm primitives
# --------------------------------------------------------------------- #


class TestShmPrimitives:
    def test_ring_write_read_roundtrip(self):
        shm = create_segment(EdgeChunkRing.nbytes(8, 2))
        try:
            ring = EdgeChunkRing(shm, slot_edges=8, slots=2)
            src = np.arange(5, dtype=np.int64)
            dst = np.arange(5, dtype=np.int64) * 7
            assert ring.write(1, src, dst) == 5
            got_src, got_dst = ring.read(1, 5)
            assert np.array_equal(got_src, src)
            assert np.array_equal(got_dst, dst)
        finally:
            unlink_segment(shm)
        _assert_shm_clean()

    def test_ring_rejects_oversized_chunk(self):
        shm = create_segment(EdgeChunkRing.nbytes(4, 1))
        try:
            ring = EdgeChunkRing(shm, slot_edges=4, slots=1)
            with pytest.raises(ValueError, match="exceeds slot capacity"):
                ring.write(0, np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64))
        finally:
            unlink_segment(shm)

    def test_writer_blocks_only_when_ring_full(self):
        shm = create_segment(EdgeChunkRing.nbytes(4, 2))
        try:
            ring = EdgeChunkRing(shm, slot_edges=4, slots=2)
            writer = RingWriter(ring)
            acks: list[int] = []

            def wait_ack():
                acks.append(writer._in_flight[0])
                return acks[-1]

            assert writer.next_slot(wait_ack) == 0
            assert writer.next_slot(wait_ack) == 1
            assert acks == []  # ring not yet full: no blocking
            assert writer.next_slot(wait_ack) == 0  # full: drains one ack
            assert acks == [0]
            assert writer.in_flight == 2
        finally:
            unlink_segment(shm)

    def test_writer_rejects_out_of_order_ack(self):
        shm = create_segment(EdgeChunkRing.nbytes(4, 3))
        try:
            writer = RingWriter(EdgeChunkRing(shm, slot_edges=4, slots=3))
            writer.next_slot(lambda: 0)
            writer.next_slot(lambda: 0)
            with pytest.raises(RuntimeError, match="out-of-order"):
                writer.ack(1)
        finally:
            unlink_segment(shm)

    def test_result_segment_roundtrip_and_bounds(self):
        shm = create_segment(6 * 8)
        try:
            result = ResultSegment(shm)
            assert result.capacity >= 6
            values = np.arange(6, dtype=np.int64) * 3
            assert result.write(values) == 6
            assert np.array_equal(result.read(6), values)
            assert result.read(0).size == 0
            with pytest.raises(ValueError, match="exceeds segment capacity"):
                result.write(np.zeros(result.capacity + 1, dtype=np.int64))
            with pytest.raises(ValueError, match="outside segment capacity"):
                result.read(result.capacity + 1)
            result.close()
        finally:
            unlink_segment(shm)
        _assert_shm_clean()

    def test_leak_audit_lists_only_this_process_segments(self):
        """Another run's live segments on the same host are not this
        process's leak.  The foreign pid starts with this one's digits, so
        the audit must match the whole ``clugp-shm-<pid>-`` prefix."""
        foreign = shared_memory.SharedMemory(
            name=f"{SHM_PREFIX}{os.getpid()}0-{secrets.token_hex(4)}", create=True, size=8
        )
        own = None
        try:
            own = create_segment(8)
            listed = leaked_segments()
            assert own.name in listed and foreign.name not in listed
        finally:
            unlink_segment(foreign)
            unlink_segment(own)

    def test_ndarray_nbytes_walks_containers(self):
        msg = {
            "a": np.zeros(4, dtype=np.int64),
            "b": [np.zeros(2, dtype=np.float64), "text", 7],
            "c": {"d": (np.zeros(1, dtype=np.int8),)},
        }
        assert ndarray_nbytes(msg) == 32 + 16 + 1
        assert ndarray_nbytes({"op": "chunk", "slot": 3, "length": 100}) == 0


# --------------------------------------------------------------------- #
# runtime lifecycle
# --------------------------------------------------------------------- #


class TestRuntimeLifecycle:
    def test_context_manager_unlinks_all_segments(self):
        with PersistentRuntime(3, slot_edges=64, ring_slots=2) as runtime:
            assert len(leaked_segments()) == 3
            for worker in range(3):
                assert runtime.call(worker, {"op": "ping"}) == "pong"
        _assert_shm_clean()

    def test_close_is_idempotent(self):
        runtime = PersistentRuntime(2, slot_edges=64)
        runtime.close()
        runtime.close()
        _assert_shm_clean()

    def test_feed_shard_keeps_edge_plane_pickle_free(self):
        with PersistentRuntime(1, slot_edges=16, ring_slots=2) as runtime:
            rng = np.random.default_rng(0)
            src = rng.integers(0, 50, size=100)
            dst = rng.integers(0, 50, size=100)
            runtime.feed_shard(0, src, dst, 50)
            assert runtime.edge_pickle_bytes == 0
        _assert_shm_clean()

    def test_fed_worker_owns_two_segments(self):
        """The edge ring from spawn, the result plane from the first feed."""
        with PersistentRuntime(2, slot_edges=16, ring_slots=2) as runtime:
            assert len(leaked_segments()) == 2
            src = np.arange(40, dtype=np.int64) % 7
            runtime.feed_shard(0, src, src[::-1].copy(), 7)
            assert len(leaked_segments()) == 3
            runtime.feed_shard(1, src, src[::-1].copy(), 7)
            assert len(leaked_segments()) == 4
            assert runtime.edge_pickle_bytes == 0
        _assert_shm_clean()

    def test_worker_error_reply_raises_with_traceback(self):
        with PersistentRuntime(1) as runtime:
            with pytest.raises(RuntimeError, match="transform before summary"):
                runtime.call(0, {"op": "probe", "offset": 0})
        _assert_shm_clean()


# --------------------------------------------------------------------- #
# bit-identity against the thread backend
# --------------------------------------------------------------------- #


class TestThreadParity:
    """The acceptance matrix: persistent — spawned per call and resident —
    == thread, bit for bit."""

    @pytest.mark.parametrize("num_nodes", [1, 3, 4, 8])
    def test_bit_identical_to_thread(self, ident_stream, num_nodes):
        def run(backend, runtime=None):
            return distributed_clugp(
                ident_stream, 8, num_nodes=num_nodes, seed=0,
                backend=backend, runtime=runtime,
            )

        reference = run("thread")
        spawned = run("persistent")
        with PersistentRuntime(num_nodes) as runtime:
            resident = [run("persistent", runtime) for _ in range(2)]
        for result in (spawned, *resident):
            assert np.array_equal(
                reference.assignment.edge_partition, result.assignment.edge_partition
            )
            assert reference.merge.to_dict().keys() == result.merge.to_dict().keys()
            for field in (
                "num_global_clusters", "num_boundary_vertices",
                "num_unresolved_edges", "max_cluster_volume", "merge_bytes",
                "broadcast_bytes", "quota_bytes", "game_rounds", "game_moves",
            ):
                assert getattr(reference.merge, field) == getattr(result.merge, field)
        _assert_shm_clean()

    def test_node_reports_match_thread(self, ident_stream):
        reference = distributed_clugp(
            ident_stream, 8, num_nodes=4, seed=0, backend="thread"
        )
        result = distributed_clugp(
            ident_stream, 8, num_nodes=4, seed=0, backend="persistent"
        )
        for ref, got in zip(reference.nodes, result.nodes):
            assert (
                ref.node, ref.num_edges, ref.num_clusters, ref.splits,
                ref.game_rounds,
            ) == (got.node, got.num_edges, got.num_clusters, got.splits, got.game_rounds)

    def test_merged_node_reports_match_thread(self, ident_stream):
        reference, result = (
            distributed_clugp(
                ident_stream, 8, num_nodes=4, seed=0,
                backend=backend,
            )
            for backend in ("thread", "persistent")
        )
        for ref, got in zip(reference.nodes, result.nodes):
            assert (
                ref.node, ref.num_edges, ref.num_clusters, ref.splits,
                ref.game_rounds, ref.summary_bytes, ref.boundary_vertices,
            ) == (
                got.node, got.num_edges, got.num_clusters, got.splits,
                got.game_rounds, got.summary_bytes, got.boundary_vertices,
            )

    def test_runtime_rejected_on_other_backends(self, ident_stream):
        with PersistentRuntime(2) as runtime:
            with pytest.raises(ValueError, match="persistent"):
                distributed_clugp(
                    ident_stream, 4, num_nodes=2, backend="thread", runtime=runtime
                )
        _assert_shm_clean()

    def test_runtime_size_mismatch_raises(self, ident_stream):
        with PersistentRuntime(2) as runtime:
            with pytest.raises(ValueError, match="workers"):
                distributed_clugp(
                    ident_stream, 4, num_nodes=3, backend="persistent",
                    runtime=runtime,
                )
        _assert_shm_clean()


class TestResidentReuse:
    def test_same_workers_same_bits_across_calls(self, ident_stream):
        with PersistentRuntime(3) as runtime:
            pids = [h.process.pid for h in runtime.workers]
            first = distributed_clugp(
                ident_stream, 8, num_nodes=3, seed=0, backend="persistent",
                runtime=runtime,
            )
            second = distributed_clugp(
                ident_stream, 8, num_nodes=3, seed=0, backend="persistent",
                runtime=runtime,
            )
            assert [h.process.pid for h in runtime.workers] == pids
            assert np.array_equal(
                first.assignment.edge_partition, second.assignment.edge_partition
            )
            assert runtime.edge_pickle_bytes == 0
        _assert_shm_clean()

    def test_partitioner_facade_owns_resident_pool(self, ident_stream):
        with DistributedClugpPartitioner(
            8, num_nodes=3, seed=0, backend="persistent"
        ) as partitioner:
            first = partitioner.partition(ident_stream)
            runtime = partitioner._runtime
            assert runtime is not None
            pids = [h.process.pid for h in runtime.workers]
            second = partitioner.partition(ident_stream)
            assert partitioner._runtime is runtime
            assert [h.process.pid for h in runtime.workers] == pids
            assert np.array_equal(first.edge_partition, second.edge_partition)
        _assert_shm_clean()

    def test_larger_shard_grows_the_result_segment(self, ident_stream):
        m = ident_stream.num_edges
        small = EdgeStream(
            ident_stream.src[: m // 4], ident_stream.dst[: m // 4],
            ident_stream.num_vertices,
        )
        with PersistentRuntime(2) as runtime:
            first = distributed_clugp(
                small, 8, num_nodes=2, seed=0,
                backend="persistent", runtime=runtime,
            )
            names = [h.result.shm.name for h in runtime.workers]
            assert all(h.result.capacity >= small.num_edges // 2 for h in runtime.workers)
            assert all(h.result.capacity < m // 2 for h in runtime.workers)
            grown = distributed_clugp(
                ident_stream, 8, num_nodes=2, seed=0,
                backend="persistent", runtime=runtime,
            )
            assert all(h.result.capacity >= m // 2 for h in runtime.workers)
            assert [h.result.shm.name for h in runtime.workers] != names
            assert len(leaked_segments()) == 4  # the outgrown ones are unlinked
            # and a smaller shard afterwards reuses the grown segment
            names = [h.result.shm.name for h in runtime.workers]
            again = distributed_clugp(
                small, 8, num_nodes=2, seed=0,
                backend="persistent", runtime=runtime,
            )
            assert [h.result.shm.name for h in runtime.workers] == names
        for stream, result in ((small, first), (ident_stream, grown), (small, again)):
            oracle = distributed_clugp(
                stream, 8, num_nodes=2, seed=0, backend="thread"
            )
            assert np.array_equal(
                oracle.assignment.edge_partition, result.assignment.edge_partition
            )
        _assert_shm_clean()

    def test_zero_pickle_gate_in_result_counters(self, ident_stream):
        result = distributed_clugp(
            ident_stream, 8, num_nodes=3, seed=0, backend="persistent"
        )
        # bump() drops zero counts, so absence of the audit counter IS the
        # zero-copy gate: any pickled ndarray on the ingest plane would
        # surface a positive edge_pickle_bytes here
        assert result.to_dict()["reliability"].get("edge_pickle_bytes", 0) == 0


# --------------------------------------------------------------------- #
# pipeline accounting
# --------------------------------------------------------------------- #


class TestPipelineAccounting:
    def test_overlap_and_busy_idle_surfaced(self, ident_stream):
        result = distributed_clugp(
            ident_stream, 8, num_nodes=4, seed=0,
            backend="persistent",
        )
        overlaps = result.to_dict()["stage_overlaps"]
        assert set(overlaps) == {
            f"node{node}_{kind}" for node in range(4) for kind in ("busy", "idle")
        }
        for node in range(4):
            assert overlaps[f"node{node}_busy"] >= 0.0
            assert overlaps[f"node{node}_idle"] >= 0.0
        assert "pipeline" in result.summary()

    def test_overlaps_never_inflate_critical_path(self, ident_stream):
        result = distributed_clugp(
            ident_stream, 8, num_nodes=4, seed=0,
            backend="persistent",
        )
        times = result.assignment.stage_times
        assert times.critical_path == pytest.approx(times.walls["critical_path"])
        assert sum(times.overlaps.values()) >= 0.0
        # the measured wall covers the stage maxima plus the transport
        assert times.walls["critical_path"] >= (
            times.walls["shard"] + times["merge"] + times["game"]
            + times.walls["transform"]
        )

    def test_control_plane_carries_no_edge_sized_payload(self, crawl_stream):
        """Up: summaries and aggregated graphs; back: a length.  All the
        pipes move in a call is less than the edge partition alone — which
        used to come back pickled — weighs."""
        result = distributed_clugp(
            crawl_stream, 8, num_nodes=2, seed=0,
            backend="persistent",
        )
        moved = result.to_dict()["reliability"]["control_plane_bytes"]
        assert moved < result.assignment.edge_partition.nbytes


# --------------------------------------------------------------------- #
# chaos: crash/hang/corrupt on resident workers
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def chaos_stream() -> EdgeStream:
    graph = web_crawl_graph(300, avg_out_degree=7.0, host_size=20, seed=9)
    return EdgeStream.from_graph(graph, order="natural")


def _run_persistent(stream, spec, timeout=None):
    reliability = ReliabilityConfig(
        inject_faults=spec, task_timeout=timeout,
        backoff_base=0.0, backoff_max=0.0,
    )
    cfg = ClugpConfig(num_partitions=4, reliability=reliability)
    return distributed_clugp(
        stream, 4, num_nodes=3, config=cfg, seed=0, backend="persistent",
    )


class TestPersistentChaos:
    """Injected faults hit real resident processes; bits must not move."""

    def test_injected_crash_respawns_bit_identical(self, chaos_stream):
        baseline = _run_persistent(chaos_stream, "")
        chaotic = _run_persistent(chaos_stream, "crash,seed=1")
        assert np.array_equal(
            baseline.assignment.edge_partition, chaotic.assignment.edge_partition
        )
        counters = chaotic.to_dict()["reliability"]
        # one victim per stage: every stage lost a worker, the round-2 stage
        # included, and the commit-stage respawn re-attached the result
        # segment through the replayed feed (or the bits would differ)
        for stage in ("shard", "attribute", "probe", "commit"):
            assert counters.get(f"{stage}_crashes") == 1, stage
        assert counters["retries"] == 4
        _assert_shm_clean()

    def test_hang_timeout_respawns_bit_identical(self, chaos_stream):
        # every stage's victim hangs, so the run waits out one task_timeout
        # per stage (four) — the hang itself is cut short by the respawn's
        # terminate; a healthy stage replies in milliseconds, far inside it
        baseline = _run_persistent(chaos_stream, "")
        chaotic = _run_persistent(
            chaos_stream, "hang,seed=0,hang_seconds=30", timeout=0.5
        )
        assert np.array_equal(
            baseline.assignment.edge_partition, chaotic.assignment.edge_partition
        )
        assert chaotic.to_dict()["reliability"].get("attribute_timeouts") == 1
        _assert_shm_clean()

    def test_corruption_quarantined_by_validation(self, chaos_stream):
        baseline = _run_persistent(chaos_stream, "")
        chaotic = _run_persistent(chaos_stream, "corrupt,seed=3")
        assert np.array_equal(
            baseline.assignment.edge_partition, chaotic.assignment.edge_partition
        )
        counters = chaotic.to_dict()["reliability"]
        # both checksummed payloads were hit, both were quarantined
        assert counters.get("shard_invalid") == 1
        assert counters.get("attribute_invalid") == 1
        assert counters["retries"] == 2
        _assert_shm_clean()

    def test_crash_mid_run_leaves_resident_pool_reusable(self, chaos_stream):
        reliability = ReliabilityConfig(
            inject_faults="crash,seed=1", backoff_base=0.0, backoff_max=0.0
        )
        cfg = ClugpConfig(num_partitions=4, reliability=reliability)
        with PersistentRuntime(3) as runtime:
            chaotic = distributed_clugp(
                chaos_stream, 4, num_nodes=3, config=cfg, seed=0,
                backend="persistent", runtime=runtime,
            )
            # the respawned pool must still serve a clean follow-up call
            clean = distributed_clugp(
                chaos_stream, 4, num_nodes=3, seed=0, backend="persistent",
                runtime=runtime,
            )
            assert np.array_equal(
                chaotic.assignment.edge_partition,
                clean.assignment.edge_partition,
            )
        _assert_shm_clean()


# --------------------------------------------------------------------- #
# retry exhaustion: a fault that never heals
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _CrashOneStallTheRest(FaultInjector):
    """The stage's victim fails at once; every other worker first stalls
    ``slow_seconds``, so its reply is still owed when the victim exhausts
    its retries."""

    def pre_task(self, stage, node, num_nodes, attempt, in_process):
        if self.decide(stage, node, num_nodes, attempt) is None:
            time.sleep(self.slow_seconds)
        super().pre_task(stage, node, num_nodes, attempt, in_process)


class TestPersistentExhaustion:
    @pytest.mark.parametrize(
        "spec, timeout, reason",
        [
            ("crash,persist,seed=1", None, "crash"),
            ("hang,persist,seed=0,hang_seconds=30", 0.5, "timeout"),
            ("corrupt,persist,seed=3", None, "invalid"),
        ],
    )
    def test_exhaustion_names_stage_and_worker(self, chaos_stream, spec, timeout, reason):
        reliability = ReliabilityConfig(
            inject_faults=spec, task_timeout=timeout, max_retries=1,
            backoff_base=0.0, backoff_max=0.0,
        )
        cfg = ClugpConfig(num_partitions=4, reliability=reliability)
        # every stage has a victim, so the first stage is the one that fails
        victim = next(
            n for n in range(3)
            if FaultInjector.from_spec(spec).decide("shard", n, 3, 0)
        )
        with pytest.raises(
            ShardTaskError,
            match=f"stage 'shard': worker {victim} failed after 2 attempts: "
            f"task {victim} {reason}",
        ):
            distributed_clugp(
                chaos_stream, 4, num_nodes=3, config=cfg, seed=0,
                backend="persistent",
            )
        _assert_shm_clean()

    def test_exhausted_stage_leaves_resident_pool_clean(self, chaos_stream):
        """The other workers' replies to the failed stage must not be left
        in their pipes for the runtime's next call to read."""
        inject = _CrashOneStallTheRest(
            kinds=("crash",), seed=1, persist=True, slow_seconds=2.0
        )
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        with PersistentRuntime(3) as runtime:
            distributed_clugp(
                chaos_stream, 4, num_nodes=3, seed=0, backend="persistent",
                runtime=runtime,
            )
            msg = {
                "op": "summary", "num_partitions": 4, "seed": 0,
                "config": ClugpConfig(num_partitions=4), "boundary": None,
                "chunk_size": None,
            }
            with pytest.raises(ShardTaskError, match="stage 'stall'"):
                runtime.run_stage("stall", [msg] * 3, policy=policy, inject=inject)
            after = distributed_clugp(
                chaos_stream, 4, num_nodes=3, seed=0,
                backend="persistent", runtime=runtime,
            )
        _assert_shm_clean()
        oracle = distributed_clugp(
            chaos_stream, 4, num_nodes=3, seed=0, backend="thread"
        )
        assert np.array_equal(
            oracle.assignment.edge_partition, after.assignment.edge_partition
        )
