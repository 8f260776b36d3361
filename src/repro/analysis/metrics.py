"""Partition-quality summaries (Section II-B of the paper).

The quantities themselves — ``|p_i|``, ``|P(v)|``, the replication
factor and the relative balance — are methods of
:class:`~repro.partitioners.PartitionAssignment`; this module adds the
mirror total and the one-row :class:`QualityReport` built from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..partitioners.base import PartitionAssignment

__all__ = [
    "mirror_count",
    "QualityReport",
    "quality_report",
]


def mirror_count(assignment: PartitionAssignment) -> int:
    """Total mirrors: ``sum_v (|P(v)| - 1)`` — one replica is the master."""
    counts = assignment.vertex_partition_counts()
    active = counts[counts > 0]
    return int(active.sum() - active.size)


@dataclass(frozen=True)
class QualityReport:
    """One-line quality summary of a partitioning run."""

    algorithm: str
    num_partitions: int
    num_vertices: int
    num_edges: int
    replication_factor: float
    relative_balance: float
    mirrors: int
    max_partition_edges: int
    min_partition_edges: int
    runtime_seconds: float
    state_memory_bytes: int = 0

    def row(self) -> tuple:
        """Tuple form used by the comparison table printer."""
        return (
            self.algorithm,
            self.num_partitions,
            f"{self.replication_factor:.3f}",
            f"{self.relative_balance:.3f}",
            self.mirrors,
            f"{self.runtime_seconds:.3f}s",
        )


def quality_report(
    assignment: PartitionAssignment,
    algorithm: str = "?",
    state_memory_bytes: int = 0,
) -> QualityReport:
    """Build a :class:`QualityReport` from an assignment."""
    sizes = assignment.partition_sizes()
    return QualityReport(
        algorithm=algorithm,
        num_partitions=assignment.num_partitions,
        num_vertices=int(assignment.stream.active_vertices().size),
        num_edges=assignment.stream.num_edges,
        replication_factor=assignment.replication_factor(),
        relative_balance=assignment.relative_balance(),
        mirrors=mirror_count(assignment),
        max_partition_edges=int(sizes.max()) if sizes.size else 0,
        min_partition_edges=int(sizes.min()) if sizes.size else 0,
        runtime_seconds=assignment.total_time(),
        state_memory_bytes=state_memory_bytes,
    )
