"""Single-source shortest paths (synchronous Bellman-Ford) as a GAS program.

Directed, with optional per-edge weights (unit weights by default).  The
frontier shrinks as distances settle, exercising the runtime's
active-vertex cost accounting on a workload whose superstep count equals
the graph's hop eccentricity from the source.
"""

from __future__ import annotations

import numpy as np

from ..runtime import DenseAccumulator, LocalContext, LocalGasRuntime, RunCost

__all__ = ["SsspProgram", "sssp"]


class SsspProgram:
    """Bellman-Ford relaxation from a single source vertex.

    Min-gather over a block's local in-edges of frontier-activated
    targets; edge weights are regrouped once by stream position
    (``LocalIndex.edge_ids``) and sliced per block.  Minimum is
    order-independent, so the distances do not depend on the partitioning.

    Parameters
    ----------
    source:
        Source vertex id (an integer; a bool or a float is a ``TypeError``).
    weights:
        Optional per-edge non-negative weights (stream order; NaN is
        refused); defaults to unit weights (hop distance).
    """

    edge_mode = "directed"
    frontier = "sparse"
    accumulator = DenseAccumulator(np.dtype(np.float64), np.inf, np.minimum)

    def __init__(self, source: int, weights=None) -> None:
        if isinstance(source, bool) or not isinstance(source, (int, np.integer)):
            raise TypeError(f"source must be an integer vertex id, got {source!r}")
        self.source = int(source)
        self.weights = None if weights is None else np.asarray(weights, np.float64)
        # NaN fails the comparison too: it would poison every later relaxation
        if self.weights is not None and not (self.weights >= 0).all():
            raise ValueError("weights must be non-negative (and not NaN)")

    def init(self, runtime: LocalGasRuntime) -> np.ndarray:
        if not 0 <= self.source < runtime.num_vertices:
            raise ValueError(f"source {self.source} out of range")
        if self.weights is not None and self.weights.shape != runtime.stream.src.shape:
            raise ValueError("weights must have one entry per edge")
        dist = np.full(runtime.num_vertices, np.inf, dtype=np.float64)
        dist[self.source] = 0.0
        return dist

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
    runtime: LocalGasRuntime,
    source: int,
    weights=None,
    max_supersteps: int = 500,
) -> tuple[np.ndarray, RunCost]:
    """Run SSSP from ``source``; returns (distances, cost).

    Unreached vertices have distance ``inf``.
    """
    return runtime.run(SsspProgram(source, weights), max_supersteps=max_supersteps)
