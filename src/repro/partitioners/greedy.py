"""Greedy — PowerGraph's coordinated greedy edge placement (Gonzalez 2012).

For each streamed edge (u, v), with A(x) = set of partitions already
holding x and per-partition edge loads:

1. if ``A(u) ∩ A(v)`` nonempty -> least-loaded partition in the intersection;
2. elif both nonempty          -> least-loaded in ``A(u) ∪ A(v)``;
3. elif exactly one nonempty   -> least-loaded in that set;
4. else                        -> least-loaded partition overall.

Load ties always break to the lowest partition id, so the per-edge and
chunked paths are bit-identical by construction.

This is the "high quality / high time cost" heuristic of Table I: each edge
consults the global vertex-placement table and all k loads, so the runtime
grows with k (Figure 7) and the state is O(|V| * k / 8 + k) bytes
(Figure 6).

Chunked hot path
----------------
The placement decision is an argmin of near-tied integer loads —
provably order-chaotic at greedy's balanced-load attractor (DESIGN.md
§4), so the chunked path keeps the per-edge decision order: each chunk
is one call into the resolved :mod:`repro.kernels` backend's
``greedy_chunk``, the candidate-set argmin over flat load/bitmask-word
arrays, writing the chunk's slice of the result in place.  Integer-only
state, so it is bit-identical by construction to :meth:`_per_edge`, the
oracle behind :meth:`partition_per_edge` (DESIGN.md §8).
"""

from __future__ import annotations

import numpy as np

from ..graph.stream import EdgeStream
from .base import ReplicaSetPartitioner

__all__ = ["GreedyPartitioner"]


class GreedyPartitioner(ReplicaSetPartitioner):
    """PowerGraph coordinated-greedy vertex-cut partitioning.

    The chunk step is the :mod:`repro.kernels` ``greedy_chunk`` kernel,
    bit-identical to :meth:`partition_per_edge`, which is the only path
    that still places one edge at a time in Python (what the fig-7
    k-dependence benches time).
    """

    name = "greedy"

    def _per_edge(self, stream: EdgeStream, out: np.ndarray, times) -> None:
        k = self.num_partitions
        loads = [0] * k
        placed: list[set[int]] = [set() for _ in range(stream.num_vertices)]
        src_list = stream.src.tolist()
        dst_list = stream.dst.tolist()
        all_parts = range(k)
        for i, (u, v) in enumerate(zip(src_list, dst_list)):
            au, av = placed[u], placed[v]
            common = au & av
            if common:
                candidates = common
            elif au and av:
                candidates = au | av
            elif au or av:
                candidates = au or av
            else:
                candidates = all_parts
            p = min(candidates, key=lambda q: (loads[q], q))
            out[i] = p
            loads[p] += 1
            au.add(p)
            av.add(p)
        self._replica_entries = sum(len(s) for s in placed)

    # ------------------------------------------------------------------ #
    # the one pass: per-run state, chunk step, replica accounting
    # ------------------------------------------------------------------ #

    def _begin(self, stream: EdgeStream) -> None:
        super()._begin(stream)
        self._loads = np.zeros(self.num_partitions, dtype=np.int64)

    def _chunk(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        self._backend.greedy_chunk(
            u, v, self.num_partitions, self._nw, self._loads, self._words, out
        )

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        """Vertex->partition-set table (one 8-byte entry per replica, as in
        the reference hash-set implementations) + the k-entry load array.

        When the partitioner has run, the measured replica count is used;
        otherwise a lower-bound estimate of one entry per vertex.
        """
        entries = getattr(self, "_replica_entries", stream.num_vertices)
        return entries * 8 + 8 * self.num_partitions
