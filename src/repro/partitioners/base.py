"""Partitioner interface and the shared assignment result type.

Every algorithm in this library — the five streaming baselines, CLUGP,
its ablations and its distributed form — is
``partition(stream, chunk_size=None)``: it makes its passes over
:meth:`EdgeStream.batches <repro.graph.EdgeStream.batches>`, a restartable
source of ``(src, dst)`` column chunks, and produces a
:class:`PartitionAssignment`: one partition id per edge (Problem 1 of the
paper).  :class:`EdgePartitioner` owns the entry, the chunk loop, the
clock and the result array; a subclass supplies a per-chunk step or its
own passes.  The quality metrics (replication factor, relative balance)
are methods of the result object; :mod:`repro.analysis.metrics` builds
the one-row report from them.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from .._util import (
    StageTimes,
    Timer,
    check_positive_int,
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
        self._vertex_partition_counts = None

    # ------------------------------------------------------------------ #
    # core quantities (Section II-B)
    # ------------------------------------------------------------------ #

    def partition_sizes(self) -> np.ndarray:
        """``|p_i|`` — number of edges per partition."""
        return np.bincount(
            self.edge_partition, minlength=self.num_partitions
        ).astype(np.int64)

    def vertex_partition_counts(self) -> np.ndarray:
        """``|P(v)|`` per vertex — number of partitions holding v.

        A vertex is *in* a partition iff some incident edge is assigned
        there.  Vertices with no edges have count 0.  One sort of the
        2|E| (vertex, partition) keys, cached: the replication factor
        reads the same counts however often it is asked.
        """
        if self._vertex_partition_counts is None:
            vertices, _, _ = vertex_partition_pairs(
                self.stream.src,
                self.stream.dst,
                self.edge_partition,
                self.num_partitions,
            )
            counts = np.bincount(vertices, minlength=self.stream.num_vertices)
            self._vertex_partition_counts = counts.astype(np.int64)
        return self._vertex_partition_counts

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

    def total_time(self) -> float:
        """Total recorded partitioning work seconds (summed stages)."""
        return self.stage_times.total

    def wall_time(self) -> float:
        """Deployment wall-clock: the critical path across concurrent
        workers when one was recorded (e.g. ``critical_path`` for distributed
        CLUGP), else the summed stage total."""
        return self.stage_times.critical_path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartitionAssignment(k={self.num_partitions}, "
            f"|E|={self.stream.num_edges}, RF={self.replication_factor():.3f})"
        )


class EdgePartitioner:
    """Base vertex-cut edge partitioner: passes over a restartable stream.

    Both public entries are final here.  :meth:`partition` validates
    ``chunk_size`` and owns the clock, the :class:`~repro._util.StageTimes`
    a run records its stages into, one preallocated int64 result array
    and the :class:`PartitionAssignment`; :meth:`partition_per_edge` does
    the same around the oracle.  A subclass *makes its passes over*
    ``stream.batches(chunk_size)`` *and fills the result* (DESIGN §12):

    * a one-pass algorithm supplies the per-chunk step :meth:`_chunk`
      over column pairs ``(u, v, out)``, optionally :meth:`_begin` /
      :meth:`_end`, and inherits the loop (:meth:`_run`);
    * everything else overrides :meth:`_run` — a pull over a restartable
      source is what lets an algorithm read the stream again;
    * :meth:`_per_edge` is the oracle, the faithful one-edge-at-a-time
      loop; a class with no separate oracle does not define it.
    """

    #: human-readable algorithm name (used in reports and the registry)
    name: str = "base"
    #: stream order the algorithm performs best under (Section VI-A: the
    #: paper evaluates every competitor under its best order — random for
    #: the one-pass heuristics/hashes, BFS/crawl order for Mint and CLUGP)
    preferred_order: str = "random"
    #: chunk size :meth:`partition` reads the stream in when none is given
    default_chunk_size: int = 1 << 16

    def __init__(self, num_partitions: int, seed: int = 0) -> None:
        self.num_partitions = check_positive_int(num_partitions, "num_partitions")
        self.seed = int(seed)

    def partition(
        self, stream: EdgeStream, chunk_size: int | None = None
    ) -> PartitionAssignment:
        """Partition ``stream``, read as chunks of at most ``chunk_size``
        edges (default :attr:`default_chunk_size`) in every pass.

        The assignment does not depend on ``chunk_size`` and is
        bit-identical to :meth:`partition_per_edge`.
        """
        if chunk_size is None:
            chunk_size = self.default_chunk_size
        else:
            chunk_size = check_positive_int(chunk_size, "chunk_size")
        return self._assemble(self._run, stream, chunk_size)

    def partition_per_edge(self, stream: EdgeStream) -> PartitionAssignment:
        """Partition via the reference per-edge streaming loop.

        This is the faithful one-edge-at-a-time path a non-vectorized
        streaming system would execute; it is kept as the correctness
        reference for :meth:`partition` and as the benchmark baseline.
        """
        return self._assemble(self._per_edge, stream)

    def _assemble(self, run, stream: EdgeStream, *args) -> PartitionAssignment:
        times = StageTimes()
        out = np.empty(stream.num_edges, dtype=np.int64)
        with Timer() as t:
            run(stream, *args, out, times)
        if not times.stages:  # a run that names no stage of its own
            times.add("total", t.elapsed)
        return PartitionAssignment(stream, out, self.num_partitions, times)

    # ------------------------------------------------------------------ #
    # what a subclass supplies
    # ------------------------------------------------------------------ #

    def _run(
        self, stream: EdgeStream, chunk_size: int, out: np.ndarray, times: StageTimes
    ) -> None:
        """Make the algorithm's passes over ``stream.batches(chunk_size)``
        and fill ``out``; here, the one pass of a one-pass algorithm."""
        self._begin(stream)
        for u, v, out_slice in stream.batches(chunk_size, out):
            self._chunk(u, v, out_slice)
        self._end()

    def _begin(self, stream: EdgeStream) -> None:
        """Reset per-run state.  May read stream *metadata*
        (``num_vertices``, ``num_edges``), never edges."""

    def _chunk(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        """Place one chunk, given as contiguous int64 endpoint columns,
        into ``out`` (same length, a contiguous slice of the result)."""
        raise NotImplementedError(
            f"{type(self).__name__} supplies neither _chunk nor _run"
        )

    def _end(self) -> None:
        """Close the run (e.g. measure the state :meth:`state_memory_bytes`
        reports)."""

    def _per_edge(self, stream: EdgeStream, out: np.ndarray, times: StageTimes) -> None:
        """The per-edge oracle: fill ``out`` one edge at a time.  Default:
        the algorithm has no separate oracle and is its own reference."""
        self._run(stream, self.default_chunk_size, out, times)

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        """Analytic size of the algorithm's live state tables, in bytes.

        Used for the Figure 6 space comparison.  The default of 0 matches
        stateless hashing; stateful algorithms override.
        """
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(k={self.num_partitions})"


class ReplicaSetPartitioner(EdgePartitioner):
    """A one-pass heuristic over each vertex's partition set ``A(x)``
    (HDRF, greedy): the set table in the layout the kernels read, and the
    replica count :meth:`state_memory_bytes` reports after a run.

    The sets are flat multiword uint64 bitmask rows, ``_nw = ceil(k /
    64)`` words per vertex (vertex ``x`` owns ``_words[x * _nw : (x + 1)
    * _nw]``).
    """

    def __init__(self, num_partitions: int, seed: int = 0) -> None:
        super().__init__(num_partitions, seed)
        self._backend = kernels.get_backend()

    def _begin(self, stream: EdgeStream) -> None:
        self._nw = (self.num_partitions + 63) // 64
        self._words = np.zeros(stream.num_vertices * self._nw, dtype=np.uint64)

    def _end(self) -> None:
        self._replica_entries = kernels.popcount(self._words)
