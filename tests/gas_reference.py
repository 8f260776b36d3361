"""Global-array numpy reference for the four GAS apps: the tests' value
oracle, independent of the runtime's index, routes and block functions.

Each program evaluates one synchronous superstep on whole-graph arrays
(``superstep`` returns ``(new_values, changed)``), in the float order the
runtime's apps are pinned to.  :func:`run` iterates until no vertex
changed or ``max_supersteps`` is hit and returns ``(values,
num_supersteps)`` — the superstep count the runtime must report too.
There is no cost model: message counts are checked against
``2 * sum(|P(v)| - 1)`` over the runtime's own ``sync_masks``.
"""

from __future__ import annotations

import numpy as np


def run(program, stream, max_supersteps: int) -> tuple[np.ndarray, int]:
    values = program.init(stream)
    for step in range(1, max_supersteps + 1):
        values, changed = program.superstep(stream, values)
        if not changed.any():
            break
    return values, step


class PageRank:
    def __init__(self, damping: float = 0.85, tol: float = 1e-8) -> None:
        self.damping = float(damping)
        self.tol = float(tol)

    def init(self, stream) -> np.ndarray:
        n = stream.num_vertices
        self._out_degree = np.bincount(stream.src, minlength=n).astype(np.float64)
        return np.full(n, 1.0 / max(n, 1), dtype=np.float64)

    def superstep(self, stream, values: np.ndarray):
        n = stream.num_vertices
        out_degree = self._out_degree
        src, dst = stream.src, stream.dst
        contrib = np.where(out_degree > 0, values / np.maximum(out_degree, 1.0), 0.0)
        gathered = np.zeros(n, dtype=np.float64)
        np.add.at(gathered, dst, contrib[src])
        dangling_mass = values[out_degree == 0].sum()
        scale = max(n, 1)
        new_values = (1.0 - self.damping) / scale + self.damping * (
            gathered + dangling_mass / scale
        )
        err = np.abs(new_values - values).sum()
        if err < self.tol * n:
            changed = np.zeros(n, dtype=bool)
        else:
            changed = np.ones(n, dtype=bool)
        return new_values, changed


class ConnectedComponents:
    def init(self, stream) -> np.ndarray:
        return np.arange(stream.num_vertices, dtype=np.int64)

    def superstep(self, stream, values: np.ndarray):
        src, dst = stream.src, stream.dst
        new_values = values.copy()
        np.minimum.at(new_values, dst, values[src])
        np.minimum.at(new_values, src, values[dst])
        changed = new_values != values
        return new_values, changed


class Sssp:
    def __init__(self, source: int, weights=None) -> None:
        self.source = source
        self.weights = None if weights is None else np.asarray(weights, np.float64)

    def init(self, stream) -> np.ndarray:
        dist = np.full(stream.num_vertices, np.inf, dtype=np.float64)
        dist[self.source] = 0.0
        return dist

    def superstep(self, stream, values: np.ndarray):
        src, dst = stream.src, stream.dst
        w = self.weights if self.weights is not None else 1.0
        candidate = values[src] + w
        new_values = values.copy()
        np.minimum.at(new_values, dst, candidate)
        changed = new_values < values
        return new_values, changed


class LabelPropagation:
    def __init__(self, max_iters: int = 10) -> None:
        self.max_iters = int(max_iters)
        self._iteration = 0

    def init(self, stream) -> np.ndarray:
        self._iteration = 0
        return np.arange(stream.num_vertices, dtype=np.int64)

    def superstep(self, stream, values: np.ndarray):
        self._iteration += 1
        n = stream.num_vertices
        src, dst = stream.src, stream.dst
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


# the apps' entry points, over a stream, with the apps' defaults


def pagerank(stream, damping=0.85, tol=1e-8, max_supersteps=100):
    return run(PageRank(damping, tol), stream, max_supersteps)


def connected_components(stream, max_supersteps=200):
    return run(ConnectedComponents(), stream, max_supersteps)


def sssp(stream, source, weights=None, max_supersteps=500):
    return run(Sssp(source, weights), stream, max_supersteps)


def label_propagation(stream, max_iters=10):
    return run(LabelPropagation(max_iters), stream, max_iters + 1)
