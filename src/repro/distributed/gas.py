"""Distributed GAS execution on the persistent worker pool.

:class:`DistributedGasRuntime` is :class:`~repro.system.runtime.LocalGasRuntime`'s
superstep loop on another host: contiguous partition ranges are owned by the
resident node processes of a
:class:`~repro.distributed.runtime.PersistentRuntime` (typically the
processes that just partitioned the graph), each holding one
:class:`~repro.system.runtime.BlockRange` whose block functions its
``gas_*`` handlers call.  Per superstep, three round trips of route rows:

1. ``gas_gather`` — a worker gets its slots of the packed frontier
   (``None`` while all are active) and returns its selected mirrors'
   partials, its contiguous run of route rows, and aggregate partials;
2. ``gas_apply`` — the runs concatenated in worker order are the rows in
   route-row order (the float merge order); a worker gets the rows its
   masters receive, grouped by master partition through
   ``master_order``, folds, applies, and returns its new master values
   and the rows back to their mirrors;
3. ``gas_sync`` — a worker gets the apply rows of its mirror run and the
   packed changed mask, and returns the vertices it activates.  Skipped
   on the final superstep.

Message and byte counts come from the loop's route selection (the
parity contract); ``compute_seconds`` is the slowest worker's measured
kernel time, ``comm_seconds`` the rest of the measured superstep wall,
and :attr:`DistributedGasRuntime.wire_bytes` the run's measured
control-plane traffic.  Dense accumulators only; a worker death raises
:class:`~repro.distributed.runtime.WorkerDiedError` (app state is not
checkpointed, see docs/distributed.md).
"""

from __future__ import annotations

import time

import numpy as np

from .._util import group_by_bounded
from ..partitioners.base import PartitionAssignment
from ..system.runtime import BlockRange, DenseAccumulator, LocalGasRuntime
from .runtime import PersistentRuntime

__all__ = ["DistributedGasRuntime"]


class DistributedGasRuntime(LocalGasRuntime):
    """Partition-local GAS of ``assignment`` on the worker pool
    ``runtime`` — commonly the pool that produced it, so the app runs
    where the shards already live.  The local runtime's superstep loop: the same
    ``run()`` contract, bit-identical values, superstep and message
    counts on dense-accumulator programs; measured seconds."""

    mode = "distributed"

    def __init__(self, assignment: PartitionAssignment, runtime: PersistentRuntime) -> None:
        super().__init__(assignment)
        self.runtime = runtime
        k, workers = self.num_partitions, runtime.num_workers
        #: worker -> the contiguous partition range ``(lo, hi)`` it owns
        self.ranges = [(k * w // workers, k * (w + 1) // workers) for w in range(workers)]
        #: measured control-plane bytes of the last run (setup + supersteps)
        self.wire_bytes = 0
        self.setup_seconds = 0.0
        self._runs: list[int] = []

    def _call(self, op: str, per_worker: list[dict], **shared) -> list:
        """One round trip: worker ``w`` gets ``per_worker[w]`` + ``shared``."""
        msgs = [{"op": op, **fields, **shared} for fields in per_worker]
        return [payload for payload, _ in self.runtime.call_all(msgs)]

    # the worker host: contiguous ranges, route rows over the pipes

    def _start(self, program, values_global: np.ndarray) -> None:
        """Ship each worker its range (sub-graph, replica values, mirror
        run) plus the program, once per run."""
        if not isinstance(program.accumulator, DenseAccumulator):
            raise ValueError(
                "DistributedGasRuntime supports dense accumulators only; "
                "run ragged programs on LocalGasRuntime"
            )
        self._wire_before = self.runtime.wire_bytes
        started = time.perf_counter()
        self._call(
            "gas_setup",
            [{"block": BlockRange(self.index, lo, hi, values_global)} for lo, hi in self.ranges],
            program=program, num_vertices=self.num_vertices,
            num_partitions=self.num_partitions,
        )
        self.setup_seconds = time.perf_counter() - started

    def _finish(self) -> None:
        self.wire_bytes = self.runtime.wire_bytes - self._wire_before

    def _gather(self, program, active_slots):
        self._busy = self.runtime.busy_snapshot()
        first = self.index.part_indptr
        replies = self._call("gas_gather", [
            {"active": None if active_slots is None
             else np.packbits(active_slots[first[lo] : first[hi]])}
            for lo, hi in self.ranges
        ])
        runs = [run for run, _ in replies]
        self._runs = [run.size for run in runs]
        return np.concatenate(runs), [p for _, partials in replies for p in partials]

    def _apply(self, program, master, rows, aggregate):
        routes, first = self.index.routes, self.index.part_indptr
        if master.size == routes.num_mirrors:  # every row: the static grouping
            order, bounds = routes.master_order, routes.master_indptr
        else:
            owner = np.searchsorted(first, master, side="right") - 1
            order, bounds = group_by_bounded(owner, self.num_partitions)
        shares = [order[bounds[lo] : bounds[hi]] for lo, hi in self.ranges]
        replies = self._call("gas_apply", [
            {"dst": master[share] - first[lo], "rows": rows[share]}
            for (lo, _), share in zip(self.ranges, shares)
        ], aggregate=aggregate)
        # the apply rows come back grouped like the gather rows went out
        back = np.concatenate([payload for *_, payload in replies])
        payload = np.empty_like(back)
        payload[order] = back
        return [(gids, new_values) for gids, new_values, _ in replies], payload

    def _sync(self, applied_rows, changed, undirected: bool) -> list:
        ends = np.cumsum([0, *self._runs])
        return self._call(
            "gas_sync",
            [{"rows": applied_rows[a:b]} for a, b in zip(ends[:-1], ends[1:])],
            changed=None if changed is None else np.packbits(changed),
            undirected=undirected,
        )

    def _seconds(self, active_edges, active_masters, messages, volume, started):
        """Measured: the slowest worker's kernel time, the rest of the
        superstep wall transport."""
        busy = zip(self._busy, self.runtime.busy_snapshot())
        compute = max((after - before for before, after in busy), default=0.0)
        return compute, max(0.0, time.perf_counter() - started - compute)
