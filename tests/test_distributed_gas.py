"""Distributed GAS on resident workers vs the local-runtime oracle.

:class:`~repro.distributed.gas.DistributedGasRuntime` must be a drop-in
for :class:`~repro.system.runtime.LocalGasRuntime` on dense-accumulator
programs: bit-identical values, identical superstep counts, and
*identical per-superstep message/byte counts* (the communication parity
contract) — while its compute/comm seconds are measured on real
processes and its ``wire_bytes`` reflects actual pipe traffic.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.bench.harness import run_algorithm
from repro.distributed import DistributedGasRuntime, PersistentRuntime, leaked_segments
from repro.distributed.worker import _PLAIN_HANDLERS, _WorkerState
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.system import LocalGasRuntime
from repro.system.apps import (
    ConnectedComponentsProgram,
    LabelPropagationProgram,
    PageRankProgram,
    SsspProgram,
    label_propagation,
    pagerank,
)
from repro.system.runtime import BlockRange


def _hub(stream: EdgeStream) -> int:
    return int(np.bincount(stream.src).argmax())


#: name -> (program factory over the stream, max_supersteps)
PROGRAMS = {
    "pagerank": (lambda stream: PageRankProgram(), 40),
    "sssp": (lambda stream: SsspProgram(_hub(stream)), 100),
    "cc": (lambda stream: ConnectedComponentsProgram(), 100),
}


@pytest.fixture(scope="module")
def gas_stream() -> EdgeStream:
    """~3.5K-edge crawl with edgeless vertices (unhosted-apply path)."""
    graph = web_crawl_graph(600, avg_out_degree=6.0, host_size=25, seed=11)
    return EdgeStream.from_graph(graph, order="natural")


@pytest.fixture(scope="module")
def gas_assignment(gas_stream):
    return run_algorithm("clugp", gas_stream, 4, seed=0)[1]


@pytest.fixture(scope="module")
def pool():
    with PersistentRuntime(3) as runtime:
        yield runtime


def _assert_parity(local_pair, dist_pair):
    """values bit-identical; per-superstep messages/bytes equal."""
    local_values, local_cost = local_pair
    dist_values, dist_cost = dist_pair
    assert local_values.dtype == dist_values.dtype
    equal_nan = np.issubdtype(local_values.dtype, np.floating)
    assert np.array_equal(local_values, dist_values, equal_nan=equal_nan)
    assert dist_cost.num_supersteps == local_cost.num_supersteps
    for ref, got in zip(local_cost.supersteps, dist_cost.supersteps):
        assert got.messages == ref.messages
        assert got.bytes == ref.bytes
        assert got.active_vertices == ref.active_vertices
        assert got.active_edges == ref.active_edges


class TestOracleParity:
    def test_pagerank_bit_identical(self, gas_assignment, pool):
        local = LocalGasRuntime(gas_assignment).run(
            PageRankProgram(), max_supersteps=40
        )
        dist = DistributedGasRuntime(gas_assignment, pool).run(
            PageRankProgram(), max_supersteps=40
        )
        _assert_parity(local, dist)

    def test_sssp_bit_identical(self, gas_assignment, gas_stream, pool):
        source = int(np.bincount(gas_stream.src).argmax())
        local = LocalGasRuntime(gas_assignment).run(SsspProgram(source))
        dist = DistributedGasRuntime(gas_assignment, pool).run(
            SsspProgram(source)
        )
        _assert_parity(local, dist)

    def test_connected_components_bit_identical(self, gas_assignment, pool):
        local = LocalGasRuntime(gas_assignment).run(
            ConnectedComponentsProgram()
        )
        dist = DistributedGasRuntime(gas_assignment, pool).run(
            ConnectedComponentsProgram()
        )
        _assert_parity(local, dist)

    @pytest.mark.parametrize("app", sorted(PROGRAMS))
    @pytest.mark.parametrize("num_workers", [1, 2, 4, 5])
    def test_worker_count_does_not_change_bits(
        self, gas_assignment, gas_stream, app, num_workers
    ):
        """k = 4: one partition per worker at 4, a worker with no
        partition at 5."""
        make, supersteps = PROGRAMS[app]
        local = LocalGasRuntime(gas_assignment).run(make(gas_stream), supersteps)
        before = set(leaked_segments())  # the module pool's live segments
        with PersistentRuntime(num_workers) as runtime:
            dist_runtime = DistributedGasRuntime(gas_assignment, runtime)
            dist = dist_runtime.run(make(gas_stream), supersteps)
        _assert_parity(local, dist)
        assert set(leaked_segments()) == before
        if num_workers > gas_assignment.num_partitions:
            assert (0, 0) in dist_runtime.ranges

    def test_app_entry_points_run_on_the_distributed_host(self, gas_assignment, pool):
        """``pagerank(engine)`` picks the partition-local program for
        either host; ragged programs stay local-only."""
        local = pagerank(LocalGasRuntime(gas_assignment), max_supersteps=40)
        dist = pagerank(DistributedGasRuntime(gas_assignment, pool), max_supersteps=40)
        _assert_parity(local, dist)
        assert local[0].tobytes() == dist[0].tobytes()
        with pytest.raises(ValueError, match="dense accumulators only"):
            label_propagation(DistributedGasRuntime(gas_assignment, pool))


class TestRuntimeBehaviour:
    def test_measured_wire_bytes_positive(self, gas_assignment, pool):
        runtime = DistributedGasRuntime(gas_assignment, pool)
        runtime.run(PageRankProgram(), max_supersteps=5)
        assert runtime.wire_bytes > 0
        assert runtime.setup_seconds > 0.0

    def test_costs_are_measured_not_modeled(self, gas_assignment, pool):
        _, cost = DistributedGasRuntime(gas_assignment, pool).run(
            PageRankProgram(), max_supersteps=5
        )
        for superstep in cost.supersteps:
            assert superstep.compute_seconds > 0.0
            assert superstep.comm_seconds >= 0.0

    def test_ragged_program_rejected(self, gas_assignment, pool):
        with pytest.raises(ValueError, match="dense accumulators"):
            DistributedGasRuntime(gas_assignment, pool).run(
                LabelPropagationProgram()
            )

    def test_partition_ownership_covers_all(self, gas_assignment, pool):
        runtime = DistributedGasRuntime(gas_assignment, pool)
        # one contiguous range per worker, in worker order, covering [0, k)
        assert len(runtime.ranges) == pool.num_workers
        owned = [pid for lo, hi in runtime.ranges for pid in range(lo, hi)]
        assert owned == list(range(gas_assignment.num_partitions))

    def test_partitioning_and_app_share_one_pool(self, gas_stream):
        """The end-to-end story: partition on the pool, run the app on it."""
        from repro.core.distributed import distributed_clugp

        before = set(leaked_segments())  # the module pool's live segments
        with PersistentRuntime(3) as runtime:
            result = distributed_clugp(
                gas_stream, 4, num_nodes=3, seed=0, backend="persistent",
                runtime=runtime,
            )
            local = LocalGasRuntime(result.assignment).run(
                PageRankProgram(), max_supersteps=40
            )
            dist = DistributedGasRuntime(result.assignment, runtime).run(
                PageRankProgram(), max_supersteps=40
            )
            _assert_parity(local, dist)
        assert set(leaked_segments()) == before


class _InProcessPool:
    """A worker pool whose workers are :class:`_WorkerState` objects in
    this process: every command goes through pickle and the worker's own
    handler, exactly as it would over a pipe."""

    wire_bytes = 0

    def __init__(self, num_workers: int) -> None:
        self.num_workers = num_workers
        self.states = [_WorkerState(node) for node in range(num_workers)]

    def busy_snapshot(self) -> list[float]:
        return [0.0] * self.num_workers

    def call_all(self, msgs: list[dict]) -> list:
        replies = []
        for state, msg in zip(self.states, msgs):
            msg = pickle.loads(pickle.dumps(msg))
            reply = _PLAIN_HANDLERS[msg["op"]](state, msg)
            replies.append((pickle.loads(pickle.dumps(reply)), 0.0))
        return replies


class TestWrittenOnce:
    @pytest.mark.parametrize("app", sorted(PROGRAMS))
    def test_worker_handlers_run_the_local_block_functions(
        self, gas_assignment, gas_stream, app, monkeypatch
    ):
        """The ``gas_*`` handlers, driven in-process over contiguous pid
        ranges, enter the block functions the local host runs over
        ``[0, k)`` and leave the same per-slot values after every
        superstep."""
        entered = []
        for name in ("gather", "apply", "put", "scatter"):
            def spy(self, *args, _name=name, _real=getattr(BlockRange, name)):
                entered.append((_name, self.part.pids))
                return _real(self, *args)

            monkeypatch.setattr(BlockRange, name, spy)

        def per_superstep(runtime, read):
            """The per-slot values at each superstep's end."""
            taken, real = [], runtime._seconds

            def spy(*args):
                taken.append(read())
                return real(*args)

            runtime._seconds = spy
            return taken

        make, supersteps = PROGRAMS[app]
        k = gas_assignment.num_partitions
        local = LocalGasRuntime(gas_assignment)
        local_values = per_superstep(local, lambda: local._block.values.copy())
        local_result = local.run(make(gas_stream), supersteps)
        local_entered, entered[:] = list(entered), []

        pool = _InProcessPool(3)
        dist = DistributedGasRuntime(gas_assignment, pool)
        dist_values = per_superstep(dist, lambda: np.concatenate(
            [state.gas["block"].values for state in pool.states]
        ))
        dist_result = dist.run(make(gas_stream), supersteps)

        _assert_parity(local_result, dist_result)
        assert len(local_values) == len(dist_values) == local_result[1].num_supersteps
        for want, got in zip(local_values, dist_values):
            assert want.tobytes() == got.tobytes()
        ranges = [range(lo, hi) for lo, hi in dist.ranges]
        assert ranges == [range(0, 1), range(1, 2), range(2, 4)]
        assert {pids for _, pids in local_entered} == {range(k)}
        assert {pids for _, pids in entered} == set(ranges)
        # every block function the local host ran, each worker ran too
        assert {name for name, _ in local_entered} == {name for name, _ in entered}
        for name in {name for name, _ in local_entered}:
            calls = [pids for entry, pids in entered if entry == name]
            assert len(calls) == len(ranges) * sum(e == name for e, _ in local_entered)
