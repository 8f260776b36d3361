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
The placement decision is an argmin of near-tied integer loads — provably
order-chaotic at greedy's balanced-load attractor (DESIGN.md §4), so the
chunked path keeps the mandatory per-edge decision order, in one of two
tiers chosen by what :func:`repro.kernels.get_backend` resolves:

* the *kernel tier* (the default wherever a C compiler exists)
  dispatches each chunk into a compiled kernel running the candidate-set
  argmin over flat load/bitmask-word arrays, writing the chunk's slice
  of the result in place — integer-only state, so bit-identity is by
  construction (DESIGN.md §8);
* the *numpy tier* (hosts without one) strips the loop to a lean scalar
  core: vertex partition sets are plain Python int bitmasks, cases 1-3
  collapse to two word operations (``wu & wv`` else ``wu | wv``)
  followed by a set-bit argmin, and only case 4 touches all k loads (via
  the C-speed ``list.index``/``min`` builtins).

Both tiers are bit-identical to :meth:`_per_edge`, the oracle behind
:meth:`partition_per_edge`.
"""

from __future__ import annotations

import numpy as np

from ..graph.stream import EdgeStream
from .base import ReplicaSetPartitioner

__all__ = ["GreedyPartitioner"]


class GreedyPartitioner(ReplicaSetPartitioner):
    """PowerGraph coordinated-greedy vertex-cut partitioning.

    The chunk step runs the compiled kernel when a
    :mod:`repro.kernels` backend resolves (the ``cc`` backend compiles
    once per machine, ~0.5 s) and the lean int-bitmask core otherwise.
    Both are bit-identical to :meth:`partition_per_edge`, which is the
    only path that still places one edge at a time in Python (what the
    fig-7 k-dependence benches time).
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
        if self._backend is not None:
            self._loads = np.zeros(self.num_partitions, dtype=np.int64)
        else:
            self._loads_list = [0] * self.num_partitions

    def _chunk(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        if self._backend is not None:
            # kernel tier: the candidate argmin in machine code
            self._backend.greedy_chunk(
                u, v, self.num_partitions, self._nw, self._loads, self._words, out
            )
            return
        loads = self._loads_list
        words = self._words
        picks = [0] * u.shape[0]
        for i, (ui, vi) in enumerate(zip(u.tolist(), v.tolist())):
            wu = words[ui]
            wv = words[vi]
            cw = wu & wv
            if not cw:
                cw = wu | wv  # cases 2/3 (either side may be empty)
            if cw:
                # argmin over the candidate bits; ascending bit order with
                # strict < replicates the (load, id) lexicographic rule
                best_p = -1
                best_l = 0
                ww = cw
                while ww:
                    b = ww & -ww
                    p = b.bit_length() - 1
                    ww ^= b
                    lp = loads[p]
                    if best_p < 0 or lp < best_l:
                        best_l = lp
                        best_p = p
                p = best_p
            else:
                # case 4: least-loaded overall; list.index returns the
                # first (lowest-id) minimum
                p = loads.index(min(loads))
            picks[i] = p
            loads[p] += 1
            bit = 1 << p
            words[ui] = wu | bit
            words[vi] = wv | bit
        out[:] = picks

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        """Vertex->partition-set table (one 8-byte entry per replica, as in
        the reference hash-set implementations) + the k-entry load array.

        When the partitioner has run, the measured replica count is used;
        otherwise a lower-bound estimate of one entry per vertex.
        """
        entries = getattr(self, "_replica_entries", stream.num_vertices)
        return entries * 8 + 8 * self.num_partitions
