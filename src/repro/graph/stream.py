"""The edge-streaming graph model (Definition 1 of the paper).

A :class:`EdgeStream` is an ordered sequence of directed edges together with
the vertex-id space.  The paper's algorithms are defined over streams, not
graphs: CLUGP makes three passes, the one-pass baselines a single pass.

The paper assumes web-graph streams arrive in BFS order ("most real web
graphs are formulated and crawled in BFS order", Section II) and evaluates
the baselines under their best orders (random).  :class:`StreamOrder`
captures the supported orders.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .._util import as_rng
from ..reliability.ingest import DropReport, VertexRangeError, sanitize_edges
from .digraph import DiGraph

__all__ = ["StreamOrder", "EdgeStream"]


def check_edge_columns(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> None:
    """Refuse endpoint columns a table of ``num_vertices`` rows cannot index.

    ``ValueError`` unless both are 1-D of one length,
    :class:`VertexRangeError` unless every id lies in ``[0, num_vertices)``.
    The stream constructor runs it, and so does every chunk state that
    indexes its tables with a caller's int64 columns, before anything is
    written.  One unsigned max per column decides: a negative id reads as
    one at or above ``2**63``.  Only a refused column pays for the signed
    extremes the message names.
    """
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src/dst must be 1-D arrays of equal length")
    limit = np.uint64(max(num_vertices, 0))
    if src.size and (src.view(np.uint64).max() >= limit or dst.view(np.uint64).max() >= limit):
        top = int(max(src.max(), dst.max()))
        if top >= num_vertices:
            raise VertexRangeError(
                f"vertex id {top} out of range for num_vertices={num_vertices}"
            )
        raise VertexRangeError("vertex ids must be non-negative")


class StreamOrder(str, Enum):
    """Supported edge arrival orders."""

    NATURAL = "natural"  # as stored in the graph
    RANDOM = "random"  # uniform shuffle
    BFS = "bfs"  # edges sorted by BFS discovery of their source vertex
    DFS = "dfs"  # edges sorted by DFS discovery of their source vertex


class EdgeStream:
    """An ordered edge sequence over a fixed vertex-id space.

    Parameters
    ----------
    src, dst:
        Edge endpoint arrays in arrival order.
    num_vertices:
        Size of the vertex-id space.

    The stream supports numpy-style bulk access (``stream.src``), chunked
    iteration (:meth:`batches`), and per-edge iteration (:meth:`__iter__`).
    :meth:`batches` is the hot path and the whole partitioner contract:
    it yields contiguous int64 ``(src, dst)`` column views — what the
    kernels index, with no per-chunk copy — and can be restarted, so an
    algorithm that needs several passes simply iterates again.

    The columns are immutable by convention and *shared*, not copied: a
    natural-order stream holds the very arrays of the graph it was built
    from, and :meth:`batches` hands out views of them.  Nothing may store
    into ``src`` / ``dst`` of a stream, a batch, or the source graph.
    """

    def __init__(self, src, dst, num_vertices: int) -> None:
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)
        self.num_vertices = int(num_vertices)
        check_edge_columns(self.src, self.dst, self.num_vertices)

    # ------------------------------------------------------------------ #

    @classmethod
    def sanitized(
        cls,
        src,
        dst,
        num_vertices: int,
        mode: str = "lenient",
    ) -> tuple["EdgeStream", DropReport]:
        """Build a stream from untrusted columns; returns it + drop counts.

        Routes through :func:`~repro.reliability.ingest.sanitize_edges`:
        ``strict`` raises the typed error of the first bad row, ``lenient``
        (the default here — this constructor exists for untrusted feeds)
        drops bad rows and counts them per reason in the
        :class:`~repro.reliability.ingest.DropReport`.
        """
        u, v, report = sanitize_edges(src, dst, num_vertices=num_vertices, mode=mode)
        return cls(u, v, num_vertices), report

    @classmethod
    def from_graph(
        cls,
        graph: DiGraph,
        order: StreamOrder | str = StreamOrder.NATURAL,
        seed=None,
        source: int | None = None,
    ) -> "EdgeStream":
        """Build a stream from a graph in the requested order.

        ``BFS``/``DFS`` orders sort edges by the traversal rank of their
        source vertex (ties broken by the rank of the destination), which
        models a crawler emitting the out-links of each page as it is
        fetched — the setting the paper's streaming-clustering step relies
        on.
        """
        order = StreamOrder(order)
        if order is StreamOrder.NATURAL:
            return cls(graph.src, graph.dst, graph.num_vertices)
        if order is StreamOrder.RANDOM:
            rng = as_rng(seed)
            perm = rng.permutation(graph.num_edges)
            return cls(graph.src[perm], graph.dst[perm], graph.num_vertices)
        if order is StreamOrder.BFS:
            rank_of = _ranks(graph.bfs_order(source=source))
        elif order is StreamOrder.DFS:
            rank_of = _ranks(_dfs_order(graph, source))
        else:  # pragma: no cover - exhaustive enum
            raise AssertionError(order)
        key = rank_of[graph.src] * np.int64(graph.num_vertices) + rank_of[graph.dst]
        perm = np.argsort(key, kind="stable")
        return cls(graph.src[perm], graph.dst[perm], graph.num_vertices)

    # ------------------------------------------------------------------ #

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def __len__(self) -> int:
        return self.num_edges

    def __iter__(self):
        """Yield ``(u, v)`` pairs as Python ints, in stream order."""
        for u, v in zip(self.src.tolist(), self.dst.tolist()):
            yield u, v

    def batches(self, batch_size: int, *aligned: np.ndarray):
        """Yield ``(src, dst)`` column views of at most ``batch_size`` edges,
        in stream order; every call starts again from the first edge.

        Each edge-aligned array in ``aligned`` (a result array, say) adds
        its view of the same edges to the tuple: ``(src, dst, out_slice)``.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        for start in range(0, self.num_edges, batch_size):
            span = slice(start, start + batch_size)
            yield (self.src[span], self.dst[span], *(a[span] for a in aligned))

    def to_graph(self) -> DiGraph:
        """Materialize the stream back into a :class:`DiGraph`."""
        return DiGraph(self.src.copy(), self.dst.copy(), self.num_vertices)

    def reordered(self, order: StreamOrder | str, seed=None) -> "EdgeStream":
        """Return a new stream over the same edges in a different order."""
        graph = DiGraph(self.src, self.dst, self.num_vertices)  # shared, not copied
        return EdgeStream.from_graph(graph, order=order, seed=seed)

    def active_vertices(self) -> np.ndarray:
        """Ids of vertices incident to at least one streamed edge."""
        used = np.zeros(self.num_vertices, dtype=bool)
        used[self.src] = True
        used[self.dst] = True
        return np.nonzero(used)[0]

    def degrees(self) -> np.ndarray:
        """Total degree per vertex over the full stream."""
        return (
            np.bincount(self.src, minlength=self.num_vertices)
            + np.bincount(self.dst, minlength=self.num_vertices)
        ).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EdgeStream(|V|={self.num_vertices}, |E|={self.num_edges})"


def _ranks(order: np.ndarray) -> np.ndarray:
    """Invert a visitation order into per-vertex ranks."""
    ranks = np.empty_like(order)
    ranks[order] = np.arange(order.size, dtype=np.int64)
    return ranks


def _dfs_order(graph: DiGraph, source: int | None) -> np.ndarray:
    """Iterative DFS visitation order over the undirected adjacency."""
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    out_indptr, out_nbrs, _ = graph.csr_out()
    in_indptr, in_nbrs, _ = graph.csr_in()
    if source is None:
        source = int(np.argmax(graph.degrees())) if graph.num_edges else 0
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    seeds = [source] + [v for v in range(n) if v != source]
    for seed in seeds:
        if visited[seed]:
            continue
        stack = [seed]
        while stack:
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = True
            order[pos] = v
            pos += 1
            nbrs = np.concatenate(
                [
                    out_nbrs[out_indptr[v] : out_indptr[v + 1]],
                    in_nbrs[in_indptr[v] : in_indptr[v + 1]],
                ]
            )
            # push in reverse so lowest-id neighbor is visited first
            for w in nbrs[::-1].tolist():
                if not visited[w]:
                    stack.append(w)
    return order
