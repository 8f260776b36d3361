"""Community label propagation (synchronous, deterministic) as a GAS program.

Each vertex adopts the most frequent label among its undirected neighbors
(ties -> smallest label), the classic Raghavan-style community detection the
paper cites as a motivating distributed workload.  Synchronous LPA need not
converge (labels can oscillate), so the run is bounded by ``max_iters``.
"""

from __future__ import annotations

import numpy as np

from ..engine import GasEngine, RunCost
from ..runtime import LABEL_COUNT, LocalContext, LocalGasRuntime, group_label_counts

__all__ = [
    "LabelPropagationProgram",
    "LocalLabelPropagationProgram",
    "label_propagation",
]


class LabelPropagationProgram:
    """Deterministic synchronous majority-label propagation.

    Parameters
    ----------
    max_iters:
        Hard iteration bound (synchronous LPA may oscillate forever).
    """

    def __init__(self, max_iters: int = 10) -> None:
        if max_iters <= 0:
            raise ValueError("max_iters must be positive")
        self.max_iters = int(max_iters)
        self._iteration = 0

    def init(self, engine: GasEngine) -> np.ndarray:
        self._iteration = 0
        return np.arange(engine.num_vertices, dtype=np.int64)

    def superstep(self, engine: GasEngine, values: np.ndarray):
        self._iteration += 1
        n = engine.num_vertices
        src, dst = engine.stream.src, engine.stream.dst
        # count (vertex, neighbor_label) pairs over the undirected adjacency
        nbr_vertex = np.concatenate([src, dst])
        nbr_label = np.concatenate([values[dst], values[src]])
        # majority by sorting (vertex, label) pairs and run-length counting
        order = np.lexsort((nbr_label, nbr_vertex))
        vtx = nbr_vertex[order]
        lab = nbr_label[order]
        boundary = np.ones(vtx.size, dtype=bool)
        boundary[1:] = (vtx[1:] != vtx[:-1]) | (lab[1:] != lab[:-1])
        starts = np.nonzero(boundary)[0]
        counts = np.diff(np.append(starts, vtx.size))
        group_vtx = vtx[starts]
        group_lab = lab[starts]
        new_values = values.copy()
        # for each vertex keep the (count desc, label asc) best group
        best_count = np.zeros(n, dtype=np.int64)
        for gv, gl, gc in zip(
            group_vtx.tolist(), group_lab.tolist(), counts.tolist()
        ):
            if gc > best_count[gv]:
                best_count[gv] = gc
                new_values[gv] = gl
        changed = new_values != values
        if self._iteration >= self.max_iters:
            changed = np.zeros(n, dtype=bool)
        return new_values, changed


class LocalLabelPropagationProgram(LabelPropagationProgram):
    """Majority-label propagation against the partition-local API
    (sharing the oracle's ``max_iters`` validation and ``init``).

    The gather accumulator is a ragged per-vertex label histogram
    (:data:`LABEL_COUNT`): each block counts labels over its local
    undirected incidences, mirrors ship their histograms to the master,
    and the master's exact integer merge + (count desc, label asc) pick
    reproduces the oracle bit-for-bit.
    """

    edge_mode = "undirected"
    frontier = "sparse"
    accumulator = LABEL_COUNT

    def gather_local(self, ctx: LocalContext):
        targets, sources = ctx.select(*ctx.part.undirected())
        return group_label_counts(
            targets, ctx.values[sources], ctx.runtime.num_vertices
        )

    def apply(self, runtime, vertex_ids, old_values, acc):
        indptr, labels, counts = acc
        new_values = old_values.copy()
        if labels.size:
            seg = np.repeat(
                np.arange(vertex_ids.size, dtype=np.int64), np.diff(indptr)
            )
            # per segment: highest count wins, ties to the smallest label
            order = np.lexsort((labels, -counts, seg))
            seg_sorted = seg[order]
            heads = order[np.r_[True, seg_sorted[1:] != seg_sorted[:-1]]]
            new_values[seg[heads]] = labels[heads]
        return new_values

    def post_superstep(
        self, runtime: LocalGasRuntime, step: int, changed: np.ndarray
    ) -> np.ndarray:
        if step + 1 >= self.max_iters:
            return np.zeros_like(changed)
        return changed


def label_propagation(
    engine: GasEngine | LocalGasRuntime, max_iters: int = 10
) -> tuple[np.ndarray, RunCost]:
    """Run LPA for at most ``max_iters`` supersteps; returns (labels, cost)."""
    return engine.run(LocalLabelPropagationProgram(max_iters), max_supersteps=max_iters + 1)
