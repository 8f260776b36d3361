"""Edge-cut streaming partitioners from the paper's related work
(Section VII): LDG and FENNEL, plus the edge-cut -> vertex-cut adapter.

LDG (Stanton & Kliot, KDD'12) places each arriving *vertex* into the
partition holding most of its already-placed neighbors, weighted by the
remaining capacity: ``score(p) = |N(v) ∩ p| * (1 - |p| / C)``.

FENNEL (Tsourakakis et al., WSDM'14) uses the interpolated objective
``score(p) = |N(v) ∩ p| - alpha * gamma/2 * |p|^(gamma-1)`` with
``gamma = 1.5`` and ``alpha = sqrt(k) * m / n^1.5`` by default.

Both are *vertex* placement algorithms; to compare them on the vertex-cut
metrics, :class:`EdgeCutAdapterPartitioner` converts a vertex assignment
to an edge assignment the same way mini-METIS does: each edge goes to the
partition of its lower-degree endpoint (the high-degree endpoint is cut,
as the paper's own transformation rule does).  The paper cites exactly
this class of algorithms as the edge-cut lineage CLUGP's clustering pass
descends from.
"""

from __future__ import annotations

import numpy as np

from ..graph.stream import EdgeStream
from .base import EdgePartitioner

__all__ = [
    "LdgPartitioner",
    "FennelPartitioner",
    "EdgeCutAdapterPartitioner",
]


class EdgeCutAdapterPartitioner(EdgePartitioner):
    """Base for edge-cut algorithms exposed behind the vertex-cut API.

    Subclasses implement :meth:`_place_vertices` returning one partition
    per vertex; the adapter then assigns each edge to its lower-degree
    endpoint's partition.
    """

    name = "edgecut-adapter"
    preferred_order = "natural"

    def _place_vertices(self, stream: EdgeStream) -> np.ndarray:
        raise NotImplementedError

    def _run(self, stream: EdgeStream, chunk_size: int, out: np.ndarray, times) -> None:
        # whole-stream: a vertex is placed against its full earlier
        # neighbourhood, which no bounded chunk holds
        part = self._place_vertices(stream)
        degrees = stream.degrees()
        cut_src = degrees[stream.src] >= degrees[stream.dst]
        out[:] = np.where(cut_src, part[stream.dst], part[stream.src])

    # shared helper: stream vertices in first-appearance order with their
    # already-seen neighborhood, the standard one-pass vertex-stream model
    @staticmethod
    def _vertex_arrivals(stream: EdgeStream):
        """Yield ``(vertex, placed_neighbor_list)`` in first-seen order.

        The neighborhood contains only neighbors that arrived earlier,
        which is exactly the information a one-pass vertex-streaming
        partitioner has when the vertex must be placed.
        """
        n = stream.num_vertices
        seen = np.zeros(n, dtype=bool)
        neighbors: list[list[int]] = [[] for _ in range(n)]
        order: list[int] = []
        for u, v in zip(stream.src.tolist(), stream.dst.tolist()):
            for x in (u, v):
                if not seen[x]:
                    seen[x] = True
                    order.append(x)
            if u != v:
                neighbors[u].append(v)
                neighbors[v].append(u)
        arrived = np.zeros(n, dtype=bool)
        for v in order:
            arrived[v] = True
            yield v, [w for w in neighbors[v] if arrived[w] and w != v]

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        # vertex -> partition table + k loads
        return stream.num_vertices * 8 + 8 * self.num_partitions


class LdgPartitioner(EdgeCutAdapterPartitioner):
    """Linear Deterministic Greedy (LDG) vertex placement.

    Parameters
    ----------
    capacity_slack:
        Capacity ``C = slack * n / k``; 1.0 is the standard setting.
    """

    name = "ldg"

    def __init__(self, num_partitions: int, seed: int = 0, capacity_slack: float = 1.0):
        super().__init__(num_partitions, seed)
        if capacity_slack <= 0:
            raise ValueError("capacity_slack must be positive")
        self.capacity_slack = float(capacity_slack)

    def _place_vertices(self, stream: EdgeStream) -> np.ndarray:
        k = self.num_partitions
        n = stream.num_vertices
        capacity = max(1.0, self.capacity_slack * n / k)
        part = np.full(n, -1, dtype=np.int64)
        sizes = np.zeros(k, dtype=np.int64)
        scores = np.empty(k, dtype=np.float64)
        for v, placed_nbrs in self._vertex_arrivals(stream):
            scores[:] = 0.0
            for w in placed_nbrs:
                scores[part[w]] += 1.0
            penalty = 1.0 - sizes / capacity
            np.clip(penalty, 0.0, None, out=penalty)
            weighted = scores * penalty
            if weighted.max() <= 0.0:
                target = int(np.argmin(sizes))  # no useful neighbor signal
            else:
                target = int(np.argmax(weighted))
            part[v] = target
            sizes[target] += 1
        return part


class FennelPartitioner(EdgeCutAdapterPartitioner):
    """FENNEL one-pass vertex placement.

    Parameters
    ----------
    gamma:
        Cost-function exponent (paper default 1.5).
    alpha:
        Balance multiplier; ``None`` uses the paper's
        ``sqrt(k) * m / n**1.5``.
    """

    name = "fennel"

    def __init__(
        self,
        num_partitions: int,
        seed: int = 0,
        gamma: float = 1.5,
        alpha: float | None = None,
    ):
        super().__init__(num_partitions, seed)
        if gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        self.gamma = float(gamma)
        self.alpha = alpha

    def _place_vertices(self, stream: EdgeStream) -> np.ndarray:
        k = self.num_partitions
        n = max(1, stream.num_vertices)
        m = max(1, stream.num_edges)
        alpha = (
            self.alpha
            if self.alpha is not None
            else np.sqrt(k) * m / n**1.5
        )
        part = np.full(stream.num_vertices, -1, dtype=np.int64)
        sizes = np.zeros(k, dtype=np.int64)
        scores = np.empty(k, dtype=np.float64)
        g = self.gamma
        for v, placed_nbrs in self._vertex_arrivals(stream):
            scores[:] = 0.0
            for w in placed_nbrs:
                scores[part[w]] += 1.0
            cost = alpha * (g / 2.0) * np.power(sizes.astype(np.float64), g - 1.0)
            target = int(np.argmax(scores - cost))
            part[v] = target
            sizes[target] += 1
        return part
