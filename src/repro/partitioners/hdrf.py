"""HDRF — High-Degree Replicated First (Petroni et al., CIKM 2015).

The state-of-the-art one-pass heuristic the paper compares against.  For
each edge (u, v), HDRF scores every partition p as::

    C(p) = C_REP(p) + lambda_bal * C_BAL(p)
    C_REP(p) = g(u, p) + g(v, p)
    g(x, p)  = 1 + (1 - theta(x))   if p in A(x) else 0
    theta(x) = d(x) / (d(u) + d(v))      (partial degrees)
    C_BAL(p) = (max_load - load[p]) / (eps + max_load - min_load)

and assigns the edge to the argmax.  Favoring partitions that already hold
the *lower*-degree endpoint (the ``1 - theta`` term) replicates high-degree
vertices first — the right trade on power-law graphs.

This is the Table I "high quality / high time cost" representative: each
edge scores all k partitions against a global table, so runtime grows with
k (Figure 7) and state is the largest of the one-pass set (Figure 6).

Chunked hot path
----------------
HDRF's recurrence is split into its decision-independent and
decision-dependent parts.  The placement decision itself is provably
order-chaotic (near-tied balance scores at the balanced-load attractor;
see DESIGN.md §4), so it stays a sequential scalar core, in one of two
tiers chosen by what :func:`repro.kernels.get_backend` resolves:

* the *kernel tier* (the default wherever a C compiler exists)
  dispatches each chunk into a compiled kernel: the full-k-scan loop in
  machine code over flat load/degree/bitmask-word arrays, writing the
  chunk's slice of the result in place, bit-identical to
  :meth:`_per_edge` by construction (same IEEE double evaluation order;
  see DESIGN.md §8);
* the *numpy tier* (hosts without one) lifts the partial-degree reads —
  the only per-edge state that does *not* depend on earlier placement
  decisions — out of the loop entirely: one radix group-by
  (:func:`repro._util.occurrence_ranks`) turns a whole chunk's
  ``d(u)/d(v)``/``theta``/``g`` values into four vectorized array
  expressions; vertex partition sets are plain Python int bitmasks and
  each edge scores only ``A(u) | A(v)`` plus the least-loaded partition —
  exact by the candidate-shortcut argument of DESIGN.md §4.2 — instead
  of all k partitions.

Both tiers are bit-identical to :meth:`_per_edge`, the oracle behind
:meth:`partition_per_edge`.
"""

from __future__ import annotations

import numpy as np

from .._util import occurrence_ranks
from ..graph.stream import EdgeStream
from .base import ReplicaSetPartitioner

__all__ = ["HDRFPartitioner"]


class HDRFPartitioner(ReplicaSetPartitioner):
    """HDRF streaming vertex-cut partitioning.

    Parameters
    ----------
    lambda_bal:
        Balance weight (paper default 1.0; >1 pushes harder for balance).
    epsilon:
        Tie-break constant in the balance term.

    The chunk step runs the compiled kernel when a
    :mod:`repro.kernels` backend resolves (the ``cc`` backend compiles
    once per machine, ~0.5 s) and the vectorized-precompute + lean scalar
    core otherwise.  Both are bit-identical to
    :meth:`partition_per_edge`, which is the only path that still scores
    one edge at a time in Python (what the fig-7 k-dependence benches
    time).
    """

    name = "hdrf"

    def __init__(
        self,
        num_partitions: int,
        seed: int = 0,
        lambda_bal: float = 1.0,
        epsilon: float = 1.0,
    ) -> None:
        super().__init__(num_partitions, seed)
        if lambda_bal < 0:
            raise ValueError(f"lambda_bal must be >= 0, got {lambda_bal}")
        if epsilon <= 0:
            # eps = 0 would divide by zero whenever loads are all equal
            # (e.g. the very first edge), so the balance term requires a
            # strictly positive tie-break constant
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        self.lambda_bal = float(lambda_bal)
        self.epsilon = float(epsilon)

    def _per_edge(self, stream: EdgeStream, out: np.ndarray, times) -> None:
        k = self.num_partitions
        loads = np.zeros(k, dtype=np.float64)
        degree = np.zeros(stream.num_vertices, dtype=np.int64)
        placed: list[set[int]] = [set() for _ in range(stream.num_vertices)]
        src_list = stream.src.tolist()
        dst_list = stream.dst.tolist()
        lam, eps = self.lambda_bal, self.epsilon
        loads_list = loads.tolist()
        # every edge scores all k partitions against the global state —
        # this per-edge O(k) scan is exactly the k-dependent time cost the
        # paper's Figure 7 measures for the heuristic methods
        for i, (u, v) in enumerate(zip(src_list, dst_list)):
            degree[u] += 1
            degree[v] += 1
            du, dv = int(degree[u]), int(degree[v])
            theta_u = du / (du + dv)
            gu = 1.0 + (1.0 - theta_u)
            gv = 1.0 + theta_u
            au, av = placed[u], placed[v]
            max_load = max(loads_list)
            denom = eps + (max_load - min(loads_list))
            scale = lam / denom
            best_p = 0
            best_score = -1e300
            for p in range(k):
                score = scale * (max_load - loads_list[p])
                if p in au:
                    score += gu
                if p in av:
                    score += gv
                if score > best_score:
                    best_score = score
                    best_p = p
            out[i] = best_p
            loads_list[best_p] += 1.0
            au.add(best_p)
            av.add(best_p)
        self._replica_entries = sum(len(s) for s in placed)

    # ------------------------------------------------------------------ #
    # the one pass: per-run state, chunk step, replica accounting
    # ------------------------------------------------------------------ #

    def _begin(self, stream: EdgeStream) -> None:
        super()._begin(stream)
        k = self.num_partitions
        self._num_vertices = stream.num_vertices
        self._degree = np.zeros(stream.num_vertices, dtype=np.int64)
        if self._backend is not None:
            self._loads = np.zeros(k, dtype=np.float64)
            return
        self._loads_list = [0.0] * k
        self._max_load = 0.0

    def _chunk(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        if self._backend is not None:
            # kernel tier: the full k-scan loop in machine code
            self._backend.hdrf_chunk(
                u, v, self.num_partitions, self._nw, self.lambda_bal,
                self.epsilon, self._loads, self._degree, self._words, out,
            )
            return
        k = self.num_partitions
        loads = self._loads_list
        words = self._words
        lam, eps = self.lambda_bal, self.epsilon

        # -- vectorized exact precompute of the degree-driven g terms --
        # (decision-independent: ranks depend only on the edge ids, so the
        # whole chunk is computed before any placement decision is made)
        rank_u, rank_v = occurrence_ranks(u, v, self._num_vertices)
        degree = self._degree
        du = degree[u] + rank_u
        dv = degree[v] + rank_v
        theta_u = du / (du + dv)
        gu_list = (1.0 + (1.0 - theta_u)).tolist()
        gv_list = (1.0 + theta_u).tolist()

        picks = [0] * u.shape[0]
        max_load = self._max_load
        min_load = min(loads)
        nmin = loads.count(min_load)
        for i, (ui, vi, gu, gv) in enumerate(
            zip(u.tolist(), v.tolist(), gu_list, gv_list)
        ):
            wu = words[ui]
            wv = words[vi]
            scale = lam / (eps + (max_load - min_load))
            w = wu | wv
            if w:
                # score only the member partitions (set bits of A(u)|A(v));
                # ascending bit order + strict > replicates the reference
                # first-maximum tie-break among members
                best_p = -1
                best_s = 0.0
                ww = w
                while ww:
                    b = ww & -ww
                    p = b.bit_length() - 1
                    ww ^= b
                    sc = scale * (max_load - loads[p])
                    if (wu >> p) & 1:
                        sc += gu
                    if (wv >> p) & 1:
                        sc += gv
                    if sc > best_s:
                        best_s = sc
                        best_p = p
                if best_s <= scale * (max_load - min_load):
                    # rare: a non-member's pure balance score could tie or
                    # beat the best member — fall back to the exact k-scan
                    best_p = 0
                    best_s = -1e300
                    for p in range(k):
                        sc = scale * (max_load - loads[p])
                        if (wu >> p) & 1:
                            sc += gu
                        if (wv >> p) & 1:
                            sc += gv
                        if sc > best_s:
                            best_s = sc
                            best_p = p
                p = best_p
            elif scale > 0.0:
                # no members: the argmax is the first least-loaded partition
                p = loads.index(min_load)
            else:
                # lambda_bal == 0 degenerate: every score is +0.0 and the
                # reference first-maximum scan picks partition 0
                p = 0
            picks[i] = p
            old = loads[p]
            new = old + 1.0
            loads[p] = new
            if new > max_load:
                max_load = new
            if old == min_load:
                nmin -= 1
                if nmin == 0:
                    min_load = min(loads)
                    nmin = loads.count(min_load)
            bit = 1 << p
            words[ui] = wu | bit
            words[vi] = wv | bit
        out[:] = picks
        self._max_load = max_load
        # chunk-end bulk degree update (the loop never reads `degree`
        # because the precomputed ranks already account for in-chunk edges)
        degree += np.bincount(u, minlength=self._num_vertices)
        degree += np.bincount(v, minlength=self._num_vertices)

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        """Partial-degree table + vertex->partition-set table (one 8-byte
        entry per replica, as in the reference hash-set implementation) +
        the k-entry load array.  Measured entries are used after a run."""
        entries = getattr(self, "_replica_entries", stream.num_vertices)
        return stream.num_vertices * 8 + entries * 8 + 8 * self.num_partitions
