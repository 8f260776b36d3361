"""Distributed GAS execution on the persistent worker pool.

:class:`DistributedGasRuntime` runs the same BSP superstep as
:class:`~repro.system.runtime.LocalGasRuntime` — the bit-identity oracle
— but the per-partition gather/apply kernels execute on the resident
node processes of a :class:`~repro.distributed.runtime.PersistentRuntime`
(partitions are owned round-robin, ``pid % num_workers``), typically the
same processes that just partitioned the graph: stream → partition → app
end-to-end on real processes.

Per superstep, three command round trips:

1. ``gas_gather`` — the coordinator ships packed active/selection bit
   masks (``None`` while every replica is active); each worker runs its
   partitions' local gather kernels, returns
   the active mirrors' partial-accumulator chunks (and, for programs
   with a ``master_aggregate`` hook, one float partial per partition);
2. ``gas_apply`` — the coordinator assembles the gather
   :class:`~repro.system.messages.MessageBuffer` (chunks concatenated in
   pid order = route-row order — float merge order is part of the bit
   contract), routes each master partition its incoming rows along the
   index's by-master grouping, and ships the reduced global aggregate;
   workers combine, apply at active masters, and return the new master
   values;
3. ``gas_sync`` — masters' applied values broadcast to mirrors (provably
   the new global value of each selected row's vertex — masters are
   authoritative), plus the packed changed mask for the workers'
   message-free scatter; workers return their activated local frontiers
   and the coordinator OR-reduces.  Skipped on the final superstep:
   nothing changed, so nobody reads the refreshed mirrors or a frontier.

The coordinator addresses everything by the replica slots of the one
flat :class:`~repro.system.placement.LocalIndex`; a worker sees only its
partitions' blocks (``LocalIndex.partition``), where
``local id = slot - part_indptr[pid]``.

``SuperstepCost.messages``/``bytes`` are counted from the same buffers
the oracle builds (the parity contract), while ``compute_seconds`` is
the slowest worker's *measured* kernel time and ``comm_seconds`` the
measured superstep wall minus that — real transport, not a network
model; :attr:`DistributedGasRuntime.wire_bytes` is the measured
control-plane traffic of the run.

Scope: dense accumulators only (the ragged label-count programs raise),
and global-aggregate programs must expose the split
``master_aggregate``/``receive_aggregate`` hooks.  A worker death
mid-run raises :class:`~repro.distributed.runtime.WorkerDiedError` — app
state is not checkpointed (see docs/distributed.md).
"""

from __future__ import annotations

import time

import numpy as np

from ..partitioners.base import PartitionAssignment
from ..system.engine import RunCost, SuperstepCost
from ..system.messages import DensePayload, MessageBuffer
from ..system.runtime import DenseAccumulator
from ..system.placement import build_local_index
from .runtime import PersistentRuntime

__all__ = ["DistributedGasRuntime"]


def _packbits(mask: np.ndarray) -> np.ndarray:
    return np.packbits(mask.astype(np.uint8))


class DistributedGasRuntime:
    """Partition-local GAS over resident worker processes.

    Drop-in for :class:`~repro.system.runtime.LocalGasRuntime` on the
    programs it supports (dense accumulators): same ``run()`` contract,
    bit-identical values and superstep counts, measured communication.

    Parameters
    ----------
    assignment:
        The vertex-cut deployment to execute on.
    runtime:
        The persistent worker pool hosting the partitions — commonly the
        pool that produced ``assignment``, so the app runs where the
        shards already live.
    """

    mode = "distributed"

    def __init__(
        self,
        assignment: PartitionAssignment,
        runtime: PersistentRuntime,
    ) -> None:
        self.assignment = assignment
        self.stream = assignment.stream
        self.runtime = runtime
        self.index = build_local_index(assignment)
        self.placement = self.index.placement
        self.num_vertices = self.stream.num_vertices
        self.num_partitions = assignment.num_partitions
        self._unhosted = self.placement.replica_counts == 0
        #: pid -> owning worker (round-robin)
        self.owner = {
            pid: pid % runtime.num_workers for pid in range(self.num_partitions)
        }
        #: per-superstep sync masks of the last run (for the parity test)
        self.sync_masks: list[np.ndarray] = []
        #: measured control-plane bytes of the last run (setup + supersteps)
        self.wire_bytes = 0
        self.setup_seconds = 0.0

    def _owned_pids(self, worker: int) -> list[int]:
        return [pid for pid in range(self.num_partitions) if self.owner[pid] == worker]

    def _call_owners(self, op: str, per_pid: dict, **shared) -> list:
        """One command round trip: each worker gets its owned partitions'
        share of every ``per_pid`` table plus the ``shared`` fields."""
        return self.runtime.call_all(
            [
                {
                    "op": op,
                    **{
                        name: {pid: table[pid] for pid in self._owned_pids(worker)}
                        for name, table in per_pid.items()
                    },
                    **shared,
                }
                for worker in range(self.runtime.num_workers)
            ]
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self, program, max_supersteps: int = 100) -> tuple[np.ndarray, RunCost]:
        """Execute ``program`` to convergence; returns (values, cost)."""
        if max_supersteps <= 0:
            raise ValueError("max_supersteps must be positive")
        spec = program.accumulator
        if not isinstance(spec, DenseAccumulator):
            raise ValueError(
                "DistributedGasRuntime supports dense accumulators only; "
                "run ragged programs on LocalGasRuntime"
            )
        if hasattr(program, "before_apply") and not hasattr(program, "master_aggregate"):
            raise ValueError(
                "program computes global aggregates in before_apply but does "
                "not expose the distributed master_aggregate/receive_aggregate "
                "hooks"
            )
        wire_before = self.runtime.wire_bytes
        values_global = np.ascontiguousarray(program.init(self))
        if hasattr(program, "setup"):
            program.setup(self)
        index = self.index
        routes = index.routes
        n = self.num_vertices
        pids = range(self.num_partitions)
        first_slot = index.part_indptr
        mirror_rows = [
            slice(routes.mirror_indptr[pid], routes.mirror_indptr[pid + 1]) for pid in pids
        ]
        master_rows = [
            routes.master_order[routes.master_indptr[pid] : routes.master_indptr[pid + 1]]
            for pid in pids
        ]
        has_aggregate = hasattr(program, "master_aggregate")
        undirected = program.edge_mode == "undirected"
        sparse = program.frontier != "dense"

        # one-time placement: ship each worker its partitions' blocks
        # (sub-graph, replica values, mirror route slice) plus the program
        t_setup = time.perf_counter()
        owned = {}
        for pid in pids:
            part = index.partition(pid)
            owned[pid] = {
                "part": part,
                "values": values_global[part.vertices],
                "mirror_local": routes.mirror_slot[mirror_rows[pid]] - first_slot[pid],
            }
        self._call_owners(
            "gas_setup", {"owned": owned}, program=program,
            num_vertices=n, num_partitions=self.num_partitions,
        )
        self.setup_seconds = time.perf_counter() - t_setup

        cost = RunCost()
        self.sync_masks = []
        active = np.ones(n, dtype=bool)
        for step in range(max_supersteps):
            t_step = time.perf_counter()
            self.sync_masks.append(active)
            active_slots = None if active.all() else active[index.vertices]

            # (1)+(2a) gather on the workers; chunks stream back per pid
            if active_slots is None:
                sel = np.ones(routes.num_mirrors, dtype=bool)
                active_bits = sel_bits = dict.fromkeys(pids)
            else:
                sel = active_slots[routes.mirror_slot]
                active_bits = {
                    pid: _packbits(active_slots[first_slot[pid] : first_slot[pid + 1]])
                    for pid in pids
                }
                sel_bits = {pid: _packbits(sel[mirror_rows[pid]]) for pid in pids}
            mirror, master = routes.mirror_slot[sel], routes.master_slot[sel]
            gather_replies = self._call_owners(
                "gas_gather", {"active_bits": active_bits, "sel_bits": sel_bits}
            )
            chunks: dict[int, np.ndarray] = {}
            aggs: dict[int, float] = {}
            worker_seconds = [s for _, s in gather_replies]
            for payload, _ in gather_replies:
                chunks.update(payload["chunks"])
                aggs.update(payload["aggs"])
            gather_buf = MessageBuffer(
                "gather", mirror, master,
                DensePayload(np.concatenate([chunks[pid] for pid in pids])),
            )

            # global aggregate: worker partials reduced in pid order, then
            # the coordinator's unhosted share — the oracle's float order
            aggregate = None
            if has_aggregate:
                total = 0.0
                for pid in pids:
                    total += aggs[pid]
                total += program.unhosted_aggregate(self, values_global)
                program.receive_aggregate(total)  # for the unhosted apply
                aggregate = total

            # (2b)+(3) route gather rows home, apply at active masters
            row_values = np.empty(routes.num_mirrors, dtype=spec.dtype)
            row_values[sel] = gather_buf.payload.values
            deliver = {}
            for pid in pids:
                rows = master_rows[pid][sel[master_rows[pid]]]
                deliver[pid] = (routes.master_slot[rows] - first_slot[pid], row_values[rows])
            apply_replies = self._call_owners(
                "gas_apply", {"deliver": deliver}, aggregate=aggregate, combine=spec.combine
            )
            new_global = values_global.copy()
            changed = np.zeros(n, dtype=bool)
            for i, (payload, seconds) in enumerate(apply_replies):
                worker_seconds[i] += seconds
                for pid, (ids, new_vals) in payload["applied"].items():
                    gids = index.vertices[first_slot[pid] + ids]
                    new_global[gids] = new_vals
                    if sparse:
                        changed[gids] = new_vals != values_global[gids]
            isolated = np.flatnonzero(active & self._unhosted)
            if isolated.size:
                new_vals = program.apply(
                    self, isolated, values_global[isolated], spec.empty(isolated.size)
                )
                new_global[isolated] = new_vals
                if sparse:
                    changed[isolated] = new_vals != values_global[isolated]

            # (4) apply sync: masters are authoritative, so the broadcast
            # values are exactly the new globals at the selected routes
            apply_buf = MessageBuffer(
                "apply", master, mirror, DensePayload(new_global[index.vertices[mirror]])
            )
            if not sparse:
                converged = program.check_converged(self, values_global, new_global)
                changed = np.full(n, not converged, dtype=bool)
            if hasattr(program, "post_superstep"):
                changed = program.post_superstep(self, step, changed)

            # (5) mirror refresh + message-free scatter on the workers —
            # only when a next superstep will read them
            if changed.any():
                # the buffer's rows are sorted by receiving slot, so each
                # mirror partition's share is one contiguous run of them
                bounds = np.searchsorted(mirror, first_slot)
                deliver = {
                    pid: (
                        mirror[bounds[pid] : bounds[pid + 1]] - first_slot[pid],
                        apply_buf.payload.values[bounds[pid] : bounds[pid + 1]],
                    )
                    for pid in pids
                }
                sync_replies = self._call_owners(
                    "gas_sync", {"deliver": deliver},
                    changed_bits=_packbits(changed) if sparse else None,
                    undirected=undirected,
                )
                next_active = np.zeros(n, dtype=bool) if sparse else changed
                for i, (payload, seconds) in enumerate(sync_replies):
                    worker_seconds[i] += seconds
                    for pid, acts in payload["activated"].items():
                        next_active[index.vertices[first_slot[pid] + acts]] = True

            # measured superstep cost: oracle-identical message/byte
            # counts, real compute (slowest worker) and transport walls
            compute = max(worker_seconds, default=0.0)
            wall = time.perf_counter() - t_step
            cost.add(
                SuperstepCost(
                    superstep=step,
                    active_vertices=int(np.count_nonzero(active)),
                    active_edges=int(index.active_counts(active_slots)[0].sum()),
                    messages=gather_buf.count + apply_buf.count,
                    bytes=gather_buf.payload_nbytes + apply_buf.payload_nbytes,
                    compute_seconds=compute,
                    comm_seconds=max(0.0, wall - compute),
                )
            )
            values_global = new_global
            if not changed.any():
                break
            active = next_active
        self.wire_bytes = self.runtime.wire_bytes - wire_before
        return values_global, cost
