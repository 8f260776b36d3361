"""PageRank as a synchronous GAS vertex program.

Standard damped power iteration with dangling-mass redistribution, matching
``networkx.pagerank`` semantics so values can be cross-checked exactly in
the tests.  This is the paper's headline application (Figure 8): its
communication cost is dominated by mirror synchronization, which is why the
replication factor drives PowerGraph performance.
"""

from __future__ import annotations

import math

import numpy as np

from ..runtime import DenseAccumulator, LocalContext, LocalGasRuntime, RunCost

__all__ = ["PageRankProgram", "pagerank"]


class PageRankProgram:
    """Damped PageRank against the partition-local :class:`LocalContext` API.

    The gather is a partition-local add-fold along the flat index's edge
    sub-graph, the dangling mass a global aggregate assembled from
    per-partition master partials, and convergence an L1 test on the
    global view.

    Parameters
    ----------
    damping:
        Damping factor alpha (0.85 default).
    tol:
        L1 convergence threshold on the rank vector, scaled by |V| as in
        networkx (``err < tol * n`` with per-vertex tolerance semantics).
    """

    edge_mode = "directed"
    frontier = "dense"
    accumulator = DenseAccumulator(np.dtype(np.float64), 0.0, np.add)

    _dangling_mass = 0.0

    def __init__(self, damping: float = 0.85, tol: float = 1e-8) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be positive and finite, got {tol}")
        self.damping = float(damping)
        self.tol = float(tol)
        self._out_degree: np.ndarray | None = None

    def init(self, runtime: LocalGasRuntime) -> np.ndarray:
        n = runtime.num_vertices
        self._out_degree = np.bincount(runtime.stream.src, minlength=n).astype(
            np.float64
        )
        return np.full(n, 1.0 / self._divisor(n), dtype=np.float64)

    @staticmethod
    def _divisor(n: int) -> int:
        """``|V|`` as the rank formula divides by it.  On the empty graph
        every rank vector is empty, so what it is divided by is moot —
        but ``x / 0`` on a Python float raises before numpy sees it."""
        return max(n, 1)

    def setup(self, runtime: LocalGasRuntime) -> None:
        # static per-slot tables over the flat index (broadcast once at
        # load time in a real deployment): every replica's out-degree, and
        # the dangling masters' slots delimited per partition
        index = runtime.index
        out_degree_slot = self._out_degree[index.vertices]
        # a sink's quotient is never read (no edge has it as source), so
        # dividing it by 1 instead of zeroing it changes no gathered bit
        self._divisor_slot = np.maximum(out_degree_slot, 1.0)
        self._dangling_slots = np.flatnonzero(index.is_master & (out_degree_slot == 0))
        self._dangling_indptr = np.searchsorted(
            self._dangling_slots, index.part_indptr
        ).tolist()
        self._unhosted_dangling = np.flatnonzero(
            (runtime.placement.replica_counts == 0) & (self._out_degree == 0)
        )

    def gather_local(self, ctx: LocalContext) -> np.ndarray:
        part = ctx.part
        contrib = ctx.values / self._divisor_slot[part.slots]
        partial = np.zeros(part.num_vertices, dtype=np.float64)
        dst, src = ctx.select(part.dst_local, part.src_local)
        self.accumulator.fold(partial, dst, contrib, src)
        return partial

    def aggregate(self, runtime, values: np.ndarray, values_global: np.ndarray) -> None:
        """Install the dangling mass before ``apply`` runs: per partition
        one pairwise ``.sum()`` over its dangling masters' slot ``values``,
        added in pid order, then the edgeless dangling vertices no
        partition hosts, read from ``values_global``.

        The float contract: each partial stays its own ``ndarray.sum()``
        over the partition's contiguous slice — ``np.add.reduceat`` sums
        sequentially instead of pairwise and changes the last bits.
        """
        mass = 0.0
        bounds = self._dangling_indptr
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            mass += float(values[self._dangling_slots[lo:hi]].sum())
        self._dangling_mass = mass + float(values_global[self._unhosted_dangling].sum())

    def apply(
        self,
        runtime: LocalGasRuntime,
        vertex_ids: np.ndarray,
        old_values: np.ndarray,
        acc: np.ndarray,
    ) -> np.ndarray:
        n = self._divisor(runtime.num_vertices)
        return (1.0 - self.damping) / n + self.damping * (
            acc + self._dangling_mass / n
        )

    def check_converged(
        self, runtime: LocalGasRuntime, old: np.ndarray, new: np.ndarray
    ) -> bool:
        return float(np.abs(new - old).sum()) < self.tol * runtime.num_vertices


def pagerank(
    runtime: LocalGasRuntime,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_supersteps: int = 100,
) -> tuple[np.ndarray, RunCost]:
    """Run PageRank on a runtime; returns (ranks, cost)."""
    return runtime.run(PageRankProgram(damping, tol), max_supersteps=max_supersteps)
