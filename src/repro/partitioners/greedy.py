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

Chunked hot path (PR 3)
-----------------------
The placement decision is an argmin of near-tied integer loads — provably
order-chaotic at greedy's balanced-load attractor (DESIGN.md §4), so the
chunked path keeps the mandatory per-edge decision order but strips it to
a lean scalar core: vertex partition sets are plain Python int bitmasks,
cases 1-3 collapse to two word operations (``wu & wv`` else ``wu | wv``)
followed by a set-bit argmin, and only case 4 touches all k loads (via the
C-speed ``list.index``/``min`` builtins).  Bit-identical to
:meth:`_assign`; the previous numpy-per-edge chunk loop is retained as
``chunk_impl="reference"`` (correctness oracle and benchmark baseline).

``chunk_impl="jit"`` (PR 7; the default, so what :meth:`partition` runs)
dispatches each chunk into a compiled kernel (:mod:`repro.kernels`)
running the same candidate-set argmin over flat load/bitmask-word
arrays — integer-only state, so bit-identity is by construction
(DESIGN.md §8).  When no kernel backend is available the run degrades
to the ``"fast"`` path above.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from .._util import BitsetRows
from ..graph.stream import EdgeStream
from .base import EdgePartitioner

__all__ = ["GreedyPartitioner"]


class GreedyPartitioner(EdgePartitioner):
    """PowerGraph coordinated-greedy vertex-cut partitioning.

    Parameters
    ----------
    chunk_impl:
        ``"jit"`` (default) runs the compiled kernel, falling back to
        ``"fast"`` when no backend resolves (the ``cc`` backend compiles
        once per machine, ~0.5 s, inside the first run that needs it);
        ``"fast"`` runs the lean int-bitmask core; ``"reference"`` runs
        the retained numpy-per-edge chunk loop.  All are bit-identical
        to :meth:`partition_per_edge`, which is the only path that still
        places one edge at a time in Python (what the fig-7
        k-dependence benches time).
    kernel_backend:
        Which :mod:`repro.kernels` backend ``"jit"`` resolves
        (``"auto"``/``"numba"``/``"cc"``/``"python"``/``"none"``).
    """

    name = "greedy"
    supports_chunks = True

    def __init__(
        self,
        num_partitions: int,
        seed: int = 0,
        chunk_impl: str = "jit",
        kernel_backend: str = "auto",
    ) -> None:
        super().__init__(num_partitions, seed)
        if chunk_impl not in ("fast", "reference", "jit"):
            raise ValueError(
                f"chunk_impl must be 'fast', 'reference' or 'jit', got {chunk_impl!r}"
            )
        self.chunk_impl = chunk_impl
        self.kernel_backend = kernel_backend

    def _assign(self, stream: EdgeStream) -> np.ndarray:
        k = self.num_partitions
        loads = [0] * k
        placed: list[set[int]] = [set() for _ in range(stream.num_vertices)]
        out = np.empty(stream.num_edges, dtype=np.int64)
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
        return out

    # ------------------------------------------------------------------ #
    # chunk protocol
    # ------------------------------------------------------------------ #

    def begin_chunks(self, stream: EdgeStream) -> None:
        k = self.num_partitions
        self._run_impl = self.chunk_impl
        if self._run_impl == "jit":
            self._backend = kernels.get_backend(self.kernel_backend)
            if self._backend is None:
                self._run_impl = "fast"  # graceful degradation, same results
        if self._run_impl == "reference":
            self._loads = np.zeros(k, dtype=np.int64)
            # vertex -> partition set as packed uint64 bitset rows, 8x
            # smaller than a (n, k) boolean table
            self._placed = BitsetRows(stream.num_vertices, k)
            return
        if self._run_impl == "jit":
            self._nw = (k + 63) // 64
            self._loads = np.zeros(k, dtype=np.int64)
            # vertex -> partition set as flat multiword uint64 bitmask
            # rows, the layout the kernels consume directly
            self._kwords = np.zeros(
                stream.num_vertices * self._nw, dtype=np.uint64
            )
            return
        self._loads_list = [0] * k
        # vertex -> partition set as one Python int bitmask per vertex:
        # arbitrary k, O(1) intersection/union, no per-edge numpy calls
        self._words = [0] * stream.num_vertices

    def partition_chunk(self, edges: np.ndarray) -> np.ndarray:
        if self._run_impl == "reference":
            return self._partition_chunk_reference(edges)
        if self._run_impl == "jit":
            return self._partition_chunk_jit(edges)
        m = edges.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        loads = self._loads_list
        words = self._words
        u_list = edges[:, 0].tolist()
        v_list = edges[:, 1].tolist()
        out = [0] * m
        for i, (u, v) in enumerate(zip(u_list, v_list)):
            wu = words[u]
            wv = words[v]
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
            out[i] = p
            loads[p] += 1
            bit = 1 << p
            words[u] = wu | bit
            words[v] = wv | bit
        return np.asarray(out, dtype=np.int64)

    def _partition_chunk_jit(self, edges: np.ndarray) -> np.ndarray:
        """Compiled-kernel chunk path: the candidate argmin in machine code."""
        m = edges.shape[0]
        out = np.empty(m, dtype=np.int64)
        if m == 0:
            return out
        self._backend.greedy_chunk(
            np.ascontiguousarray(edges[:, 0]),
            np.ascontiguousarray(edges[:, 1]),
            self.num_partitions,
            self._nw,
            self._loads,
            self._kwords,
            out,
        )
        return out

    def _partition_chunk_reference(self, edges: np.ndarray) -> np.ndarray:
        """Retained numpy-per-edge chunk loop (PR 1).

        k-wide boolean mask operations per edge over the packed bitset
        table; kept as the readable correctness oracle and as the baseline
        the lean core's >=5x bench floor is measured against.
        """
        loads, placed = self._loads, self._placed
        rows, unpack = placed.rows, placed.mask
        place = placed.add
        sentinel = np.iinfo(np.int64).max
        out = np.empty(edges.shape[0], dtype=np.int64)
        u_list = edges[:, 0].tolist()
        v_list = edges[:, 1].tolist()
        for i, (u, v) in enumerate(zip(u_list, v_list)):
            words_u = rows[u]
            words_v = rows[v]
            common = words_u & words_v
            if common.any():
                candidates = unpack(common)
            else:
                has_u = words_u.any()
                has_v = words_v.any()
                if has_u and has_v:
                    candidates = unpack(words_u | words_v)
                elif has_u:
                    candidates = unpack(words_u)
                elif has_v:
                    candidates = unpack(words_v)
                else:
                    candidates = None
            if candidates is None:
                p = int(np.argmin(loads))  # argmin ties -> lowest id
            else:
                p = int(np.argmin(np.where(candidates, loads, sentinel)))
            out[i] = p
            loads[p] += 1
            place(u, p)
            place(v, p)
        return out

    def finish_chunks(self) -> np.ndarray:
        if self._run_impl == "reference":
            self._replica_entries = self._placed.count()
        elif self._run_impl == "jit":
            self._replica_entries = kernels.popcount(self._kwords)
        else:
            self._loads = np.asarray(self._loads_list, dtype=np.int64)
            self._replica_entries = sum(w.bit_count() for w in self._words)
        return np.empty(0, dtype=np.int64)

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        """Vertex->partition-set table (one 8-byte entry per replica, as in
        the reference hash-set implementations) + the k-entry load array.

        When the partitioner has run, the measured replica count is used;
        otherwise a lower-bound estimate of one entry per vertex.
        """
        entries = getattr(self, "_replica_entries", stream.num_vertices)
        return entries * 8 + 8 * self.num_partitions
