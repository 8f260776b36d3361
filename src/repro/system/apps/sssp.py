"""Single-source shortest paths (synchronous Bellman-Ford) as a GAS program.

Directed, with optional per-edge weights (unit weights by default).  The
frontier shrinks as distances settle, exercising the engine's
active-vertex cost accounting on a workload whose superstep count equals
the graph's hop eccentricity from the source.
"""

from __future__ import annotations

import numpy as np

from ..engine import GasEngine, RunCost
from ..runtime import DenseAccumulator, LocalContext, LocalGasRuntime

__all__ = ["SsspProgram", "LocalSsspProgram", "sssp"]


class SsspProgram:
    """Bellman-Ford relaxation from a single source vertex.

    Parameters
    ----------
    source:
        Source vertex id.
    weights:
        Optional per-edge non-negative weights (stream order); defaults to
        unit weights (hop distance).
    """

    def __init__(self, source: int, weights=None) -> None:
        self.source = int(source)
        self.weights = None if weights is None else np.asarray(weights, np.float64)
        if self.weights is not None and (self.weights < 0).any():
            raise ValueError("weights must be non-negative")

    def init(self, engine: GasEngine) -> np.ndarray:
        if not 0 <= self.source < engine.num_vertices:
            raise ValueError(f"source {self.source} out of range")
        if self.weights is not None and self.weights.shape != engine.stream.src.shape:
            raise ValueError("weights must have one entry per edge")
        dist = np.full(engine.num_vertices, np.inf, dtype=np.float64)
        dist[self.source] = 0.0
        return dist

    def superstep(self, engine: GasEngine, values: np.ndarray):
        src, dst = engine.stream.src, engine.stream.dst
        w = self.weights if self.weights is not None else 1.0
        candidate = values[src] + w
        new_values = values.copy()
        np.minimum.at(new_values, dst, candidate)
        changed = new_values < values
        return new_values, changed


class LocalSsspProgram(SsspProgram):
    """Bellman-Ford against the partition-local API.

    Extends :class:`SsspProgram` to share its source/weight validation
    and ``init`` (both engines accept it).  Min-gather over a block's
    local in-edges of frontier-activated targets; edge weights are
    regrouped once by stream position (``LocalIndex.edge_ids``) and
    sliced per block.  Minimum is order-independent, so the distances
    are bit-identical to the global oracle.
    """

    edge_mode = "directed"
    frontier = "sparse"
    accumulator = DenseAccumulator(np.dtype(np.float64), np.inf, np.minimum)

    def setup(self, runtime: LocalGasRuntime) -> None:
        self._weights_grouped = (
            None if self.weights is None else self.weights[runtime.index.edge_ids]
        )

    def gather_local(self, ctx: LocalContext) -> np.ndarray:
        part = ctx.part
        partial = np.full(part.num_vertices, np.inf, dtype=np.float64)
        if self._weights_grouped is None:
            dst, src = ctx.select(part.dst_local, part.src_local)
            w = 1.0
        else:
            dst, src, w = ctx.select(
                part.dst_local, part.src_local, self._weights_grouped[part.edges]
            )
        np.minimum.at(partial, dst, ctx.values[src] + w)
        return partial

    def apply(self, runtime, vertex_ids, old_values, acc) -> np.ndarray:
        return np.minimum(old_values, acc)


def sssp(
    engine: GasEngine | LocalGasRuntime,
    source: int,
    weights=None,
    max_supersteps: int = 500,
) -> tuple[np.ndarray, RunCost]:
    """Run SSSP from ``source``; returns (distances, cost).

    Unreached vertices have distance ``inf``.
    """
    return engine.run(LocalSsspProgram(source, weights), max_supersteps=max_supersteps)
