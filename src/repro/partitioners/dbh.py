"""DBH — Degree-Based Hashing (Xie et al., NeurIPS 2014).

Hash the edge to the partition of its *lower-degree* endpoint, so that
high-degree vertices are the ones cut (replicated).  This is provably
better than plain hashing on power-law graphs: hubs are replicated anyway,
so anchoring edges at their low-degree endpoint keeps those endpoints
whole.

In the streaming setting the true degrees are unknown, so DBH uses the
*partial* degrees observed so far (as in the reference implementation).
The per-edge recurrence looks inherently sequential, but the partial
degree of ``u`` at edge i is just "occurrences of ``u`` among the
endpoints of edges 0..i-1" — an order-preserving group-by cumulative
count, which the chunk step computes for a whole chunk with one stable
argsort.  With ``exact_degrees=True`` the algorithm reads the stream
twice: a degree pass, then a fully vectorized placement pass.
"""

from __future__ import annotations

import numpy as np

from .._util import hash_to_partition, stable_argsort_bounded
from ..graph.stream import EdgeStream
from .base import EdgePartitioner

__all__ = ["DBHPartitioner"]


class DBHPartitioner(EdgePartitioner):
    """Degree-based hashing vertex-cut partitioning.

    Parameters
    ----------
    exact_degrees:
        If True, a first pass computes exact degrees and the placement pass
        is fully vectorized (the 2-pass variant).  If
        False (default, faithful to the streaming setting), partial
        degrees observed so far decide.
    """

    name = "dbh"

    def __init__(self, num_partitions: int, seed: int = 0, exact_degrees: bool = False):
        super().__init__(num_partitions, seed)
        self.exact_degrees = bool(exact_degrees)

    def _per_edge(self, stream: EdgeStream, out: np.ndarray, times) -> None:
        if self.exact_degrees:
            degrees = stream.degrees()
        else:
            degrees = None
        partial = np.zeros(stream.num_vertices, dtype=np.int64)
        src_hash = hash_to_partition(stream.src, self.num_partitions, seed=self.seed)
        dst_hash = hash_to_partition(stream.dst, self.num_partitions, seed=self.seed)
        src_list = stream.src.tolist()
        dst_list = stream.dst.tolist()
        for i, (u, v) in enumerate(zip(src_list, dst_list)):
            if degrees is None:
                # anchor at the endpoint with smaller partial degree (tie -> src)
                out[i] = src_hash[i] if partial[u] <= partial[v] else dst_hash[i]
                partial[u] += 1
                partial[v] += 1
            else:
                out[i] = src_hash[i] if degrees[u] <= degrees[v] else dst_hash[i]

    def _run(self, stream: EdgeStream, chunk_size: int, out: np.ndarray, times) -> None:
        # per-vertex degree table: exact (filled by a first pass over the
        # stream) or partial (grown by the placement pass as it goes)
        self._degrees = np.zeros(stream.num_vertices, dtype=np.int64)
        if self.exact_degrees:
            for u, v in stream.batches(chunk_size):
                np.add.at(self._degrees, u, 1)
                np.add.at(self._degrees, v, 1)
        super()._run(stream, chunk_size, out, times)

    def _chunk(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        if self.exact_degrees:
            anchor = np.where(self._degrees[u] <= self._degrees[v], u, v)
            out[:] = hash_to_partition(anchor, self.num_partitions, seed=self.seed)
            return
        m = u.size
        # partial degree of an endpoint at edge i = carried-in count plus
        # its occurrences among this chunk's earlier endpoint slots; the
        # within-chunk term is a group-by cumulative count over the
        # interleaved (src0, dst0, src1, dst1, ...) sequence
        seq = np.empty(2 * m, dtype=np.int64)
        seq[0::2] = u
        seq[1::2] = v
        order = stable_argsort_bounded(seq, self._degrees.size)
        seq_sorted = seq[order]
        pos = np.arange(2 * m, dtype=np.int64)
        run_start = np.r_[True, seq_sorted[1:] != seq_sorted[:-1]]
        run_origin = np.maximum.accumulate(np.where(run_start, pos, 0))
        prior = np.empty(2 * m, dtype=np.int64)
        prior[order] = pos - run_origin
        partial_u = self._degrees[u] + prior[0::2]
        partial_v = self._degrees[v] + prior[1::2]
        anchor = np.where(partial_u <= partial_v, u, v)
        out[:] = hash_to_partition(anchor, self.num_partitions, seed=self.seed)
        self._degrees += np.bincount(seq, minlength=self._degrees.size)

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        # one partial-degree counter per vertex
        return stream.num_vertices * 8
