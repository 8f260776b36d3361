"""Partition-quality metrics (Section II-B of the paper).

All functions accept a :class:`~repro.partitioners.PartitionAssignment`;
the fundamental quantities are vectorized over numpy so metric computation
stays cheap even when the partitioner itself is a Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..partitioners.base import PartitionAssignment

__all__ = [
    "partition_sizes",
    "vertex_partition_counts",
    "replication_factor",
    "relative_balance",
    "mirror_count",
    "cut_edges",
    "QualityReport",
    "quality_report",
]


def partition_sizes(assignment: PartitionAssignment) -> np.ndarray:
    """``|p_i|`` — edges per partition."""
    return assignment.partition_sizes()


def vertex_partition_counts(assignment: PartitionAssignment) -> np.ndarray:
    """``|P(v)|`` per vertex."""
    return assignment.vertex_partition_counts()


def replication_factor(assignment: PartitionAssignment) -> float:
    """``(1/|V'|) sum_v |P(v)|`` over active vertices (Equation 1)."""
    return assignment.replication_factor()


def relative_balance(assignment: PartitionAssignment) -> float:
    """``k * max|p_i| / |E|``; 1.0 is perfect balance."""
    return assignment.relative_balance()


def mirror_count(assignment: PartitionAssignment) -> int:
    """Total mirrors: ``sum_v (|P(v)| - 1)`` — one replica is the master."""
    counts = assignment.vertex_partition_counts()
    active = counts[counts > 0]
    return int(active.sum() - active.size)


def cut_edges(assignment: PartitionAssignment) -> int:
    """Edges whose endpoints share no partition once the edge's own
    placement is discounted — i.e. edges that forced a new endpoint
    replica instead of landing where both endpoints already lived.

    An edge (u, v) assigned to p trivially puts both endpoints in p, so
    the naive "endpoint partition sets intersect" test is always true;
    the meaningful question is whether they intersect *without* this
    edge's contribution.  Vertices are summarized as multi-word partition
    bitmasks (``ceil(k / 64)`` uint64 words each), so the metric stays
    fully vectorized for any k.
    """
    k = assignment.num_partitions
    stream = assignment.stream
    if stream.num_edges == 0:
        return 0
    part = assignment.edge_partition
    word = part // np.int64(64)
    bit = np.uint64(1) << (part % np.int64(64)).astype(np.uint64)
    # per-(vertex, partition) incidence counts: a partition survives the
    # "without this edge" discount iff >= 2 incident edges back it
    pair_vertex, pair_part, counts = assignment.replica_table()

    def packed(vertices, parts):
        rows = np.zeros((stream.num_vertices, (k + 63) // 64), dtype=np.uint64)
        bits = np.uint64(1) << (parts % 64).astype(np.uint64)
        np.bitwise_or.at(rows, (vertices, parts // 64), bits)
        return rows

    masks = packed(pair_vertex, pair_part)
    backed = counts >= 2
    masks2 = packed(pair_vertex[backed], pair_part[backed])
    degrees = stream.degrees()
    # chunk the (edges, words) intersection to bound temporary memory
    cut = 0
    chunk = 1 << 18
    for start in range(0, stream.num_edges, chunk):
        stop = start + chunk
        u = stream.src[start:stop]
        v = stream.dst[start:stop]
        w = word[start:stop]
        b = bit[start:stop]
        rows = np.arange(u.size)
        inter = masks[u] & masks[v]
        # the edge's own partition counts only if both endpoints hold it
        # through at least one other edge
        own = masks2[u, w] & masks2[v, w] & b
        inter[rows, w] = (inter[rows, w] & ~b) | own
        cut_mask = ~inter.any(axis=1)
        # self-loops double-count their own (u, p) pair, so decide them by
        # degree: cut iff the loop is the vertex's only incident edge
        loops = u == v
        if loops.any():
            cut_mask[loops] = degrees[u[loops]] == 2
        cut += int(np.count_nonzero(cut_mask))
    return cut


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
