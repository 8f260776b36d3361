"""Vertex -> incident-edge index over the service's append-only edge log.

Two per-batch questions used to be answered by scanning every edge the
service has ever ingested: "which old edges touch a vertex that just
changed cluster?" (they are relabelled in the cluster-graph delta layer)
and "which old edges touch a vertex the migration plan moves?" (they
re-stream through pass 3).  :class:`EndpointIndex` answers both from a
CSR over an indexed prefix of the log plus a linear scan of the
not-yet-indexed tail; the prefix is rebuilt whenever the tail outgrows
it, so each edge is sorted O(1) times amortized and the scanned tail is
never longer than the prefix.
"""

from __future__ import annotations

import numpy as np

from .._util import ragged_take_indices, sorted_unique

__all__ = ["EndpointIndex"]


class EndpointIndex:
    """Incident-edge lookup over a log of ``(src[i], dst[i])`` edges.

    The index does not own the log: the caller passes the current
    ``src``/``dst`` views to every call, always a prefix-extension of
    what it passed before (the log is append-only).
    """

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = int(num_vertices)
        self._indexed = 0  # edges [0, _indexed) are in the CSR
        self._indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        self._edge_ids = np.empty(0, dtype=np.int64)
        # tail-scan scratch; all False between calls
        self._mark = np.zeros(self.num_vertices, dtype=bool)

    def incident(self, vertices: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Ascending ids of the edges with an endpoint in ``vertices``.

        Equals ``flatnonzero(isin(src, vertices) | isin(dst, vertices))``
        at O(result + unindexed tail) instead of O(log length).
        ``vertices`` must be duplicate-free.
        """
        if vertices.size == 0 or src.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._indptr[vertices]
        lengths = self._indptr[vertices + 1] - starts
        out_indptr = np.zeros(vertices.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=out_indptr[1:])
        hits = self._edge_ids[ragged_take_indices(starts, lengths, out_indptr)]
        if self._indexed < src.size:
            mark = self._mark
            mark[vertices] = True
            tail = np.flatnonzero(mark[src[self._indexed:]] | mark[dst[self._indexed:]])
            mark[vertices] = False
            hits = np.concatenate([hits, tail + self._indexed])
        # an edge is listed once per endpoint in ``vertices`` (twice for a
        # self-loop); unique also puts the ids in log order
        return sorted_unique(hits)

    def extend(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Take note that the log now reads ``(src, dst)``; re-index it once
        the unindexed tail has outgrown the indexed prefix."""
        m = src.size
        if m - self._indexed > self._indexed:
            # (vertex, edge id) packed into one key: a plain value sort
            # groups by vertex and keeps each vertex's edges in log order
            ids = np.arange(m, dtype=np.int64)
            keys = np.concatenate([(src << 32) | ids, (dst << 32) | ids])
            keys.sort()
            np.cumsum(
                np.bincount(keys >> 32, minlength=self.num_vertices),
                out=self._indptr[1:],
            )
            self._edge_ids = keys & 0xFFFFFFFF
            self._indexed = m
