"""Connected components via min-label propagation (HashMin), a GAS program.

Treats edges as undirected (weakly connected components).  Only vertices
whose label changed activate their neighbors, so later supersteps get
cheaper — the frontier behaviour the runtime's active-edge accounting
captures.
"""

from __future__ import annotations

import numpy as np

from ..runtime import DenseAccumulator, LocalContext, LocalGasRuntime, RunCost

__all__ = ["ConnectedComponentsProgram", "connected_components"]


class ConnectedComponentsProgram:
    """HashMin label propagation: every vertex adopts the minimum label in
    its closed undirected neighborhood each superstep — an undirected
    min-gather over a block's local edges, exact int64 minima."""

    edge_mode = "undirected"
    frontier = "sparse"
    accumulator = DenseAccumulator(
        np.dtype(np.int64), np.iinfo(np.int64).max, np.minimum
    )

    def init(self, runtime: LocalGasRuntime) -> np.ndarray:
        return np.arange(runtime.num_vertices, dtype=np.int64)

    def gather_local(self, ctx: LocalContext) -> np.ndarray:
        partial = np.full(
            ctx.part.num_vertices, np.iinfo(np.int64).max, dtype=np.int64
        )
        targets, sources = ctx.select(*ctx.part.undirected())
        self.accumulator.fold(partial, targets, ctx.values, sources)
        return partial

    def apply(self, runtime, vertex_ids, old_values, acc) -> np.ndarray:
        return np.minimum(old_values, acc)


def connected_components(
    runtime: LocalGasRuntime, max_supersteps: int = 200
) -> tuple[np.ndarray, RunCost]:
    """Run weakly-connected components; returns (labels, cost).

    Labels equal the minimum vertex id of each component, matching
    :meth:`repro.graph.DiGraph.weakly_connected_components`.
    """
    return runtime.run(ConnectedComponentsProgram(), max_supersteps=max_supersteps)
