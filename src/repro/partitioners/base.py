"""Partitioner interface and the shared assignment result type.

Every algorithm in this library — the five streaming baselines, CLUGP and
its ablations, and the offline mini-METIS — consumes an
:class:`~repro.graph.EdgeStream` and produces a
:class:`PartitionAssignment`: one partition id per edge (Problem 1 of the
paper).  Quality metrics (replication factor, relative balance) live on the
result object and in :mod:`repro.analysis.metrics`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .._util import (
    StageTimes,
    Timer,
    check_positive_int,
    group_by_bounded,
    vertex_partition_pairs,
)
from ..graph.stream import EdgeStream

__all__ = ["PartitionAssignment", "EdgePartitioner"]


class PartitionAssignment:
    """The result of vertex-cut partitioning: ``edge_partition[i]`` is the
    partition of the i-th edge of the stream.

    Parameters
    ----------
    stream:
        The partitioned stream (kept by reference for metric computation).
    edge_partition:
        int array, one entry in ``[0, num_partitions)`` per stream edge.
    num_partitions:
        ``k``.
    stage_times:
        Optional per-stage wall-clock seconds recorded by the partitioner.
    """

    def __init__(
        self,
        stream: EdgeStream,
        edge_partition,
        num_partitions: int,
        stage_times: StageTimes | None = None,
    ) -> None:
        edge_partition = np.ascontiguousarray(edge_partition, dtype=np.int64)
        if edge_partition.shape != (stream.num_edges,):
            raise ValueError(
                f"edge_partition must have one entry per edge "
                f"({stream.num_edges}), got shape {edge_partition.shape}"
            )
        check_positive_int(num_partitions, "num_partitions")
        if edge_partition.size:
            lo, hi = int(edge_partition.min()), int(edge_partition.max())
            if lo < 0 or hi >= num_partitions:
                raise ValueError(
                    f"edge partitions must lie in [0, {num_partitions}), "
                    f"found range [{lo}, {hi}]"
                )
        self.stream = stream
        self.edge_partition = edge_partition
        self.num_partitions = int(num_partitions)
        self.stage_times = stage_times or StageTimes()
        self._replica_table = None
        self._vertex_partition_counts = None
        self._grouped_edges = None

    # ------------------------------------------------------------------ #
    # core quantities (Section II-B)
    # ------------------------------------------------------------------ #

    def partition_sizes(self) -> np.ndarray:
        """``|p_i|`` — number of edges per partition."""
        return np.bincount(
            self.edge_partition, minlength=self.num_partitions
        ).astype(np.int64)

    def replica_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse replica incidence ``(vertices, partitions, counts)`` (cached).

        One row per (vertex, partition) pair backed by at least one edge,
        sorted by vertex then partition, with the number of incident
        edges behind it.  Replica counts, the master/mirror placement and
        the runtime's replica-slot index all read this one table, so they
        agree by construction and the incidence is deduplicated once.
        """
        if self._replica_table is None:
            self._replica_table = vertex_partition_pairs(
                self.stream.src,
                self.stream.dst,
                self.edge_partition,
                self.num_partitions,
            )
        return self._replica_table

    def vertex_partition_counts(self) -> np.ndarray:
        """``|P(v)|`` per vertex — number of partitions holding v.

        A vertex is *in* a partition iff some incident edge is assigned
        there.  Vertices with no edges have count 0.
        """
        if self._vertex_partition_counts is None:
            counts = np.bincount(
                self.replica_table()[0], minlength=self.stream.num_vertices
            )
            self._vertex_partition_counts = counts.astype(np.int64)
        return self._vertex_partition_counts

    def grouped_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Partition-grouped edge layout: ``(order, indptr)`` (cached).

        ``order`` stably reorders stream edges so each partition's edges
        are one contiguous slice ``order[indptr[p]:indptr[p+1]]`` — the
        shared deployment substrate of the GAS engines (the global
        oracle's per-partition accounting and the local runtime's edge
        sub-graphs slice the same layout).
        """
        if self._grouped_edges is None:
            self._grouped_edges = group_by_bounded(
                self.edge_partition, self.num_partitions
            )
        return self._grouped_edges

    def replication_factor(self) -> float:
        """``RF = (1/|V'|) * sum_v |P(v)|`` over vertices with >=1 edge."""
        counts = self.vertex_partition_counts()
        active = counts[counts > 0]
        if active.size == 0:
            return 0.0
        return float(active.mean())

    def relative_balance(self) -> float:
        """``rho = k * max|p_i| / |E|`` (1.0 = perfectly balanced)."""
        if self.stream.num_edges == 0:
            return 1.0
        return float(
            self.num_partitions * self.partition_sizes().max() / self.stream.num_edges
        )

    def vertex_sets(self) -> list[np.ndarray]:
        """Per-partition arrays of vertex ids present in that partition."""
        k = self.num_partitions
        result: list[np.ndarray] = []
        for p in range(k):
            mask = self.edge_partition == p
            verts = np.union1d(self.stream.src[mask], self.stream.dst[mask])
            result.append(verts)
        return result

    def total_time(self) -> float:
        """Total recorded partitioning work seconds (summed stages)."""
        return self.stage_times.total

    def wall_time(self) -> float:
        """Deployment wall-clock: the critical path across concurrent
        workers when one was recorded (e.g. ``max_node`` for distributed
        CLUGP), else the summed stage total."""
        return self.stage_times.critical_path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartitionAssignment(k={self.num_partitions}, "
            f"|E|={self.stream.num_edges}, RF={self.replication_factor():.3f})"
        )


class EdgePartitioner(ABC):
    """Abstract vertex-cut edge partitioner.

    Subclasses implement :meth:`_assign` (the whole-stream path of
    algorithms without a chunk protocol, and the default per-edge
    reference) and may override :meth:`state_memory_bytes` (the Figure 6
    accounting) and :attr:`passes` (1 for streaming baselines, 3 for
    CLUGP).

    Chunked ingestion
    -----------------
    Chunk-capable partitioners implement the incremental chunk protocol —
    :meth:`begin_chunks`, :meth:`partition_chunk`, :meth:`finish_chunks` —
    and set ``supports_chunks = True``.  The protocol consumes ``(m, 2)``
    int64 edge arrays from :meth:`EdgeStream.chunks` so the hot path runs
    as numpy batch operations; :meth:`partition_chunked` drives it end to
    end.  Single-pass partitioners commit each chunk as it arrives;
    batch-buffering (Mint) and multi-pass (CLUGP) algorithms may defer
    edges — up to all of them — and flush the outstanding assignments from
    :meth:`finish_chunks`.  :meth:`partition` is the chunk protocol at
    :attr:`default_chunk_size`; :meth:`partition_per_edge` keeps the
    faithful per-edge streaming loop as the reference (and benchmark
    baseline) path; both paths must produce bit-identical assignments.
    """

    #: human-readable algorithm name (used in reports and the registry)
    name: str = "base"
    #: number of passes over the stream the algorithm makes
    passes: int = 1
    #: stream order the algorithm performs best under (Section VI-A: the
    #: paper evaluates every competitor under its best order — random for
    #: the one-pass heuristics/hashes, BFS/crawl order for Mint and CLUGP)
    preferred_order: str = "random"
    #: whether the incremental chunk protocol is implemented
    supports_chunks: bool = False
    #: chunk size used by :meth:`partition_chunked` when none is given
    default_chunk_size: int = 1 << 16

    def __init__(self, num_partitions: int, seed: int = 0) -> None:
        self.num_partitions = check_positive_int(num_partitions, "num_partitions")
        self.seed = int(seed)
        self._last_stream: EdgeStream | None = None

    def partition(self, stream: EdgeStream) -> PartitionAssignment:
        """Partition ``stream``; returns the per-edge assignment.

        Chunk-capable partitioners run the chunk protocol at
        :attr:`default_chunk_size` — the path the compiled kernels sit
        behind; :meth:`partition_per_edge` is the one per-edge loop.
        """
        return self.partition_chunked(stream)

    def partition_chunked(
        self, stream: EdgeStream, chunk_size: int | None = None
    ) -> PartitionAssignment:
        """Partition ``stream`` by ingesting ``(m, 2)`` edge chunks.

        Chunk-capable partitioners run the incremental protocol and never
        see the stream as individual edges.  Algorithms without a chunk
        path fall back to :meth:`_assign`; either way the assignment is
        bit-identical to :meth:`partition_per_edge` at every chunk size.
        """
        self._last_stream = stream
        if chunk_size is None:
            size = self.default_chunk_size
        else:
            size = check_positive_int(chunk_size, "chunk_size")
        times = StageTimes()
        with Timer() as t:
            if self.supports_chunks:
                edge_partition = self._assign_chunks(stream, size)
            else:
                edge_partition = self._assign(stream)
        times.add("total", t.elapsed)
        return PartitionAssignment(stream, edge_partition, self.num_partitions, times)

    def partition_per_edge(self, stream: EdgeStream) -> PartitionAssignment:
        """Partition via the reference per-edge streaming loop.

        This is the faithful one-edge-at-a-time path a non-vectorized
        streaming system would execute; it is kept as the correctness
        reference for the chunked path and as the benchmark baseline.
        """
        self._last_stream = stream
        times = StageTimes()
        with Timer() as t:
            edge_partition = self._assign_per_edge(stream)
        times.add("total", t.elapsed)
        return PartitionAssignment(stream, edge_partition, self.num_partitions, times)

    @abstractmethod
    def _assign(self, stream: EdgeStream) -> np.ndarray:
        """Return the per-edge partition array for ``stream``."""

    def _assign_per_edge(self, stream: EdgeStream) -> np.ndarray:
        """Reference per-edge loop; defaults to :meth:`_assign`."""
        return self._assign(stream)

    def _assign_chunks(self, stream: EdgeStream, chunk_size: int) -> np.ndarray:
        """Drive the incremental chunk protocol over the whole stream."""
        self.begin_chunks(stream)
        parts = [self.partition_chunk(chunk) for chunk in stream.chunks(chunk_size)]
        tail = self.finish_chunks()
        if tail.size:
            parts.append(tail)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # ------------------------------------------------------------------ #
    # incremental chunk protocol (single-pass partitioners)
    # ------------------------------------------------------------------ #

    def begin_chunks(self, stream: EdgeStream) -> None:
        """Reset incremental state before a chunked run.

        Implementations may read stream *metadata* (``num_vertices``,
        ``num_edges``) but must not look at edges ahead of the chunks
        subsequently passed to :meth:`partition_chunk` — except explicit
        multi-pass variants (e.g. DBH with ``exact_degrees``).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the chunk protocol"
        )

    def partition_chunk(self, edges: np.ndarray) -> np.ndarray:
        """Ingest one ``(m, 2)`` int64 edge chunk; return assignments.

        Returns the partition ids of the edges *committed* by this call —
        normally all ``m`` of them, in order.  Batch-buffering algorithms
        (Mint) may defer a tail of the chunk to the next call; deferred
        edges are flushed by :meth:`finish_chunks`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the chunk protocol"
        )

    def finish_chunks(self) -> np.ndarray:
        """Flush any edges buffered across :meth:`partition_chunk` calls."""
        return np.empty(0, dtype=np.int64)

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        """Analytic size of the algorithm's live state tables, in bytes.

        Used for the Figure 6 space comparison.  The default of 0 matches
        stateless hashing; stateful algorithms override.
        """
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(k={self.num_partitions})"
