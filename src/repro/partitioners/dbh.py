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
count, which the chunked path computes for a whole ``(m, 2)`` chunk with
one stable argsort.  A vectorized two-pass variant (exact degrees) is
used when ``exact_degrees=True``.
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
        is fully vectorized (2-pass variant).  If False (default, faithful
        to the streaming setting), partial degrees observed so far decide.
    """

    name = "dbh"
    supports_chunks = True

    def __init__(self, num_partitions: int, seed: int = 0, exact_degrees: bool = False):
        super().__init__(num_partitions, seed)
        self.exact_degrees = bool(exact_degrees)

    def _assign(self, stream: EdgeStream) -> np.ndarray:
        # the per-edge reference; partition() runs the chunk protocol
        if self.exact_degrees:
            degrees = stream.degrees()
        else:
            degrees = None
        partial = np.zeros(stream.num_vertices, dtype=np.int64)
        src_hash = hash_to_partition(stream.src, self.num_partitions, seed=self.seed)
        dst_hash = hash_to_partition(stream.dst, self.num_partitions, seed=self.seed)
        out = np.empty(stream.num_edges, dtype=np.int64)
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
        return out

    # ------------------------------------------------------------------ #
    # chunk protocol
    # ------------------------------------------------------------------ #

    def begin_chunks(self, stream: EdgeStream) -> None:
        if self.exact_degrees:
            # explicit 2-pass variant: exact degrees come from a first pass
            self._degrees = stream.degrees()
        else:
            self._partial = np.zeros(stream.num_vertices, dtype=np.int64)

    def partition_chunk(self, edges: np.ndarray) -> np.ndarray:
        u, v = edges[:, 0], edges[:, 1]
        if self.exact_degrees:
            anchor = np.where(self._degrees[u] <= self._degrees[v], u, v)
            return hash_to_partition(anchor, self.num_partitions, seed=self.seed)
        m = u.size
        if m == 0:
            return np.empty(0, dtype=np.int64)
        # partial degree of an endpoint at edge i = carried-in count plus
        # its occurrences among this chunk's earlier endpoint slots; the
        # within-chunk term is a group-by cumulative count over the
        # interleaved (src0, dst0, src1, dst1, ...) sequence
        seq = np.empty(2 * m, dtype=np.int64)
        seq[0::2] = u
        seq[1::2] = v
        order = stable_argsort_bounded(seq, self._partial.size)
        seq_sorted = seq[order]
        pos = np.arange(2 * m, dtype=np.int64)
        run_start = np.r_[True, seq_sorted[1:] != seq_sorted[:-1]]
        run_origin = np.maximum.accumulate(np.where(run_start, pos, 0))
        prior = np.empty(2 * m, dtype=np.int64)
        prior[order] = pos - run_origin
        partial_u = self._partial[u] + prior[0::2]
        partial_v = self._partial[v] + prior[1::2]
        anchor = np.where(partial_u <= partial_v, u, v)
        out = hash_to_partition(anchor, self.num_partitions, seed=self.seed)
        self._partial += np.bincount(seq, minlength=self._partial.size)
        return out

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        # one partial-degree counter per vertex
        return stream.num_vertices * 8
