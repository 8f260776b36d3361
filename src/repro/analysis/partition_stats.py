"""Deeper per-partition diagnostics beyond the two headline metrics.

Used by the examples and the design-choice ablation bench to explain *why*
a partitioning is good: where the mirrors sit, how synchronization traffic
distributes across node pairs, and how vertex (not just edge) load is
balanced — the quantities a PowerGraph operator would actually look at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..partitioners.base import PartitionAssignment
from ..system.placement import build_placement

__all__ = [
    "communication_matrix",
    "vertex_balance",
    "mirror_distribution",
    "PartitionSummary",
    "partition_summaries",
]


def communication_matrix(assignment: PartitionAssignment) -> np.ndarray:
    """``M[i, j]`` = sync messages partition i sends to partition j per
    superstep (i != j): every mirror in i sends its accumulator to its
    master's partition j, and receives the updated value back (counted in
    ``M[j, i]``).
    """
    placement = build_placement(assignment)
    k = assignment.num_partitions
    matrix = np.zeros((k, k), dtype=np.int64)
    # one row per replica: the table build_placement just cached
    vertices, partitions, _ = assignment.replica_table()
    masters = placement.master[vertices]
    mirror_mask = partitions != masters
    np.add.at(matrix, (partitions[mirror_mask], masters[mirror_mask]), 1)
    return matrix


def vertex_balance(assignment: PartitionAssignment) -> float:
    """``k * max(replicas hosted by a partition) / total replicas`` — the
    vertex-side analogue of the relative load balance."""
    placement = build_placement(assignment)
    hosted = placement.masters_per_partition + placement.mirrors_per_partition
    total = hosted.sum()
    if total == 0:
        return 1.0
    return float(assignment.num_partitions * hosted.max() / total)


def mirror_distribution(assignment: PartitionAssignment) -> np.ndarray:
    """Histogram of ``|P(v)|`` over active vertices: entry r counts
    vertices replicated into exactly r partitions."""
    counts = assignment.vertex_partition_counts()
    active = counts[counts > 0]
    return np.bincount(active, minlength=assignment.num_partitions + 1)


@dataclass(frozen=True)
class PartitionSummary:
    """Per-partition occupancy row."""

    partition: int
    edges: int
    masters: int
    mirrors: int

    @property
    def replicas(self) -> int:
        return self.masters + self.mirrors


def partition_summaries(assignment: PartitionAssignment) -> list[PartitionSummary]:
    """One :class:`PartitionSummary` per partition."""
    placement = build_placement(assignment)
    return [
        PartitionSummary(
            partition=p,
            edges=int(placement.edges_per_partition[p]),
            masters=int(placement.masters_per_partition[p]),
            mirrors=int(placement.mirrors_per_partition[p]),
        )
        for p in range(assignment.num_partitions)
    ]
