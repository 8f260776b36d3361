"""The GAS (Gather-Apply-Scatter) BSP execution engine and its cost model.

The engine executes a synchronous vertex program over the partitioned graph
exactly as PowerGraph would:

* **gather/scatter** work is proportional to the *active local edges* of
  each partition (an edge is active when its source vertex changed in the
  previous superstep);
* **apply** work is proportional to active local masters;
* at each superstep barrier, every active replicated vertex synchronizes:
  ``|P(v)| - 1`` gather messages (mirror accumulators to the master) and
  ``|P(v)| - 1`` apply messages (master value to mirrors);
* superstep wall-clock = slowest partition's compute time + network time.

Program *semantics* are evaluated globally with vectorized numpy (the
values are exact, verified against networkx in the tests); only the *cost*
is attributed per partition — which is precisely what Figure 8 measures
(communication volume, computation time, total runtime).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .._util import segment_sums
from ..partitioners.base import PartitionAssignment
from .network import NetworkModel
from .placement import Placement, build_placement

__all__ = ["VertexProgram", "SuperstepCost", "RunCost", "GasEngine"]


class VertexProgram(Protocol):
    """Synchronous vertex-program interface consumed by :class:`GasEngine`.

    ``init`` returns the initial vertex-value array; ``superstep`` returns
    ``(new_values, changed_mask)``.  The engine stops when no vertex
    changed or ``max_supersteps`` is hit.
    """

    def init(self, engine: "GasEngine") -> np.ndarray: ...

    def superstep(self, engine: "GasEngine", values: np.ndarray) -> tuple[
        np.ndarray, np.ndarray
    ]: ...


@dataclass(frozen=True)
class SuperstepCost:
    """Cost accounting of one superstep."""

    superstep: int
    active_vertices: int
    active_edges: int
    messages: int
    bytes: int
    compute_seconds: float
    comm_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds

    def to_dict(self) -> dict:
        return {
            "superstep": self.superstep,
            "active_vertices": self.active_vertices,
            "active_edges": self.active_edges,
            "messages": self.messages,
            "bytes": self.bytes,
            "compute_seconds": self.compute_seconds,
            "comm_seconds": self.comm_seconds,
            "total_seconds": self.total_seconds,
        }


@dataclass
class RunCost:
    """Aggregate cost of a vertex-program run."""

    supersteps: list[SuperstepCost] = field(default_factory=list)

    def add(self, cost: SuperstepCost) -> None:
        self.supersteps.append(cost)

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def total_messages(self) -> int:
        return sum(s.messages for s in self.supersteps)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.supersteps)

    @property
    def compute_seconds(self) -> float:
        return sum(s.compute_seconds for s in self.supersteps)

    @property
    def comm_seconds(self) -> float:
        return sum(s.comm_seconds for s in self.supersteps)

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds

    def to_dict(self, per_superstep: bool = False) -> dict:
        """JSON-ready aggregate (for the ``run_all.py --json`` payload)."""
        out = {
            "supersteps": self.num_supersteps,
            "messages": self.total_messages,
            "bytes": self.total_bytes,
            "compute_seconds": self.compute_seconds,
            "comm_seconds": self.comm_seconds,
            "total_seconds": self.total_seconds,
        }
        if per_superstep:
            out["per_superstep"] = [s.to_dict() for s in self.supersteps]
        return out

    def summary(self) -> str:
        """One-line human-readable digest of the run."""
        return (
            f"supersteps={self.num_supersteps} messages={self.total_messages} "
            f"volume={self.total_bytes / 1e6:.2f}MB "
            f"compute={self.compute_seconds:.4f}s comm={self.comm_seconds:.4f}s "
            f"total={self.total_seconds:.4f}s"
        )


class GasEngine:
    """Simulated PowerGraph cluster bound to one partitioning.

    This is the retained ``mode="global"`` *oracle*: program semantics run
    on global arrays and costs are modeled analytically.  The executable
    counterpart is :class:`repro.system.runtime.LocalGasRuntime`, whose
    per-superstep message counts the parity tests pin against this model.

    Parameters
    ----------
    assignment:
        The vertex-cut partitioning to deploy.
    network:
        Network cost model (defaults to a 10GbE/10ms cluster).
    edges_per_second:
        Per-node gather+scatter throughput (edges processed per second per
        partition; each partition is one simulated node with one core, as
        in the paper's docker setup).
    vertices_per_second:
        Per-node apply throughput.
    """

    mode = "global"

    def __init__(
        self,
        assignment: PartitionAssignment,
        network: NetworkModel | None = None,
        edges_per_second: float = 5e6,
        vertices_per_second: float = 2e7,
    ) -> None:
        if edges_per_second <= 0 or vertices_per_second <= 0:
            raise ValueError("throughput parameters must be positive")
        self.assignment = assignment
        self.stream = assignment.stream
        self.network = network or NetworkModel()
        self.edges_per_second = float(edges_per_second)
        self.vertices_per_second = float(vertices_per_second)
        self.placement: Placement = build_placement(assignment)
        self.num_vertices = self.stream.num_vertices
        self.num_partitions = assignment.num_partitions
        # CSR edge layout grouped by partition: endpoint arrays reordered
        # so each partition's edges are one contiguous slice, making the
        # per-superstep active-edge accounting a segmented sum instead of
        # a per-edge scatter
        self._edge_partition = assignment.edge_partition
        order, self._edge_indptr = assignment.grouped_edges()
        self._src_by_partition = self.stream.src[order]
        self._dst_by_partition = self.stream.dst[order]
        self._sync_factor = self.placement.replica_counts - 1
        np.clip(self._sync_factor, 0, None, out=self._sync_factor)

    # ------------------------------------------------------------------ #
    # cost primitives
    # ------------------------------------------------------------------ #

    def _superstep_cost(self, step: int, changed: np.ndarray) -> SuperstepCost:
        k = self.num_partitions
        # an edge is active when either endpoint changed last superstep;
        # evaluated in the partition-grouped CSR layout so per-partition
        # counts are prefix-sum differences over contiguous slices
        edge_active = changed[self._src_by_partition] | changed[self._dst_by_partition]
        active_edge_counts = segment_sums(edge_active, self._edge_indptr)
        master = self.placement.master
        active_master_counts = np.bincount(
            master[changed & (master >= 0)], minlength=k
        )
        compute_per_partition = (
            active_edge_counts / self.edges_per_second
            + active_master_counts / self.vertices_per_second
        )
        messages = int(
            2 * self._sync_factor[changed].sum()
        )  # gather + apply sync per mirror of each changed vertex
        comm = self.network.superstep_comm_seconds(messages)
        return SuperstepCost(
            superstep=step,
            active_vertices=int(np.count_nonzero(changed)),
            active_edges=int(active_edge_counts.sum()),
            messages=messages,
            bytes=self.network.message_volume_bytes(messages),
            compute_seconds=float(compute_per_partition.max(initial=0.0)),
            comm_seconds=comm,
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(
        self, program: VertexProgram, max_supersteps: int = 100
    ) -> tuple[np.ndarray, RunCost]:
        """Execute ``program`` to convergence; returns (values, cost)."""
        if max_supersteps <= 0:
            raise ValueError("max_supersteps must be positive")
        values = program.init(self)
        cost = RunCost()
        active = np.ones(self.num_vertices, dtype=bool)
        for step in range(max_supersteps):
            new_values, changed = program.superstep(self, values)
            cost.add(self._superstep_cost(step, active))
            values = new_values
            active = changed
            if not changed.any():
                break
        return values, cost
