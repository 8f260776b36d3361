"""Connected components via min-label propagation (HashMin), a GAS program.

Treats edges as undirected (weakly connected components).  Only vertices
whose label changed stay active, so later supersteps get cheaper — the
frontier behaviour the engine's active-edge cost model captures.
"""

from __future__ import annotations

import numpy as np

from ..engine import GasEngine, RunCost
from ..runtime import DenseAccumulator, LocalContext, LocalGasRuntime

__all__ = [
    "ConnectedComponentsProgram",
    "LocalConnectedComponentsProgram",
    "connected_components",
]


class ConnectedComponentsProgram:
    """HashMin label propagation: every vertex adopts the minimum label in
    its closed undirected neighborhood each superstep."""

    def init(self, engine: GasEngine) -> np.ndarray:
        return np.arange(engine.num_vertices, dtype=np.int64)

    def superstep(self, engine: GasEngine, values: np.ndarray):
        src, dst = engine.stream.src, engine.stream.dst
        new_values = values.copy()
        np.minimum.at(new_values, dst, values[src])
        np.minimum.at(new_values, src, values[dst])
        changed = new_values != values
        return new_values, changed


class LocalConnectedComponentsProgram(ConnectedComponentsProgram):
    """HashMin against the partition-local API (sharing the oracle's
    ``init``): undirected min-gather over a block's local edges,
    exact int64 minima — bit-identical to the global oracle."""

    edge_mode = "undirected"
    frontier = "sparse"
    accumulator = DenseAccumulator(
        np.dtype(np.int64), np.iinfo(np.int64).max, np.minimum
    )

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
    engine: GasEngine | LocalGasRuntime, max_supersteps: int = 200
) -> tuple[np.ndarray, RunCost]:
    """Run weakly-connected components; returns (labels, cost).

    Labels equal the minimum vertex id of each component, matching
    :meth:`repro.graph.DiGraph.weakly_connected_components`.
    """
    return engine.run(LocalConnectedComponentsProgram(), max_supersteps=max_supersteps)
