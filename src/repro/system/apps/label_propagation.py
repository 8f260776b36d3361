"""Community label propagation (synchronous, deterministic) as a GAS program.

Each vertex adopts the most frequent label among its undirected neighbors
(ties -> smallest label), the classic Raghavan-style community detection the
paper cites as a motivating distributed workload.  Synchronous LPA need not
converge (labels can oscillate), so the run is bounded by ``max_iters``.
"""

from __future__ import annotations

import numpy as np

from ..runtime import (
    LABEL_COUNT,
    LocalContext,
    LocalGasRuntime,
    RunCost,
    group_label_counts,
)

__all__ = ["LabelPropagationProgram", "label_propagation"]


class LabelPropagationProgram:
    """Deterministic synchronous majority-label propagation.

    The gather accumulator is a ragged per-vertex label histogram
    (:data:`LABEL_COUNT`): each block counts labels over its local
    undirected incidences, mirrors ship their histograms to the master,
    and the master's exact integer merge + (count desc, label asc) pick
    is independent of how the edges are partitioned.

    Parameters
    ----------
    max_iters:
        Hard iteration bound (synchronous LPA may oscillate forever).
    """

    edge_mode = "undirected"
    frontier = "sparse"
    accumulator = LABEL_COUNT

    def __init__(self, max_iters: int = 10) -> None:
        if max_iters <= 0:
            raise ValueError("max_iters must be positive")
        self.max_iters = int(max_iters)

    def init(self, runtime: LocalGasRuntime) -> np.ndarray:
        return np.arange(runtime.num_vertices, dtype=np.int64)

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
    runtime: LocalGasRuntime, max_iters: int = 10
) -> tuple[np.ndarray, RunCost]:
    """Run LPA for at most ``max_iters`` supersteps; returns (labels, cost)."""
    return runtime.run(LabelPropagationProgram(max_iters), max_supersteps=max_iters + 1)
