"""Grid — PowerGraph's constrained 2D-hash vertex-cut partitioning.

Arrange the k partitions in a (near-)square grid; each vertex hashes to a
grid cell and its *constraint set* is that cell's row plus column.  An
edge may only be placed in the intersection of its endpoints' constraint
sets (any row x column pair intersects, so the intersection is never
empty); within the intersection the slot is picked by a second edge hash —
PowerGraph's ``grid``/constrained-random ingress.  This caps every
vertex's replication at ``2*sqrt(k) - 1`` — a hashing-family algorithm
with a structural quality guarantee, commonly used as a PowerGraph default
and a natural extra baseline between Hashing and DBH.

Like plain hashing the algorithm is stateless, so the chunk step groups
a chunk's edges by their (cell_u, cell_v) key and resolves each group
with one vectorized candidate lookup + hash.
"""

from __future__ import annotations

import math

import numpy as np

from .._util import hash_pair_to_partition, hash_to_partition, stable_argsort_bounded
from ..graph.stream import EdgeStream
from .base import EdgePartitioner

__all__ = ["GridPartitioner"]

#: seed offset decorrelating the slot-choice hash from the cell hash
_CHOICE_SEED = 0x5BD1E995


class GridPartitioner(EdgePartitioner):
    """Constrained 2D grid hashing.

    ``num_partitions`` need not be a perfect square: the grid has
    ``rows = floor(sqrt(k))`` rows and cells beyond ``k-1`` are unused
    (their row/column constraint sets simply skip them).
    """

    name = "grid"

    def __init__(self, num_partitions: int, seed: int = 0) -> None:
        super().__init__(num_partitions, seed)
        self._intersections: dict[tuple[int, int], np.ndarray] = {}
        self._sets: list[np.ndarray] | None = None

    def _constraint_sets(self) -> list[np.ndarray]:
        if self._sets is not None:
            return self._sets
        k = self.num_partitions
        rows = max(1, int(math.isqrt(k)))
        cols = math.ceil(k / rows)
        sets: list[np.ndarray] = []
        for p in range(k):
            r, c = divmod(p, cols)
            row_members = [r * cols + j for j in range(cols) if r * cols + j < k]
            col_members = [i * cols + c for i in range(rows + 1) if i * cols + c < k]
            members = sorted(set(row_members) | set(col_members))
            sets.append(np.asarray(members, dtype=np.int64))
        self._sets = sets
        return sets

    def _candidates(self, cu: int, cv: int) -> np.ndarray:
        """Constraint-set intersection for a cell pair (cached)."""
        key = (cu, cv) if cu <= cv else (cv, cu)
        candidates = self._intersections.get(key)
        if candidates is None:
            constraint = self._constraint_sets()
            candidates = np.intersect1d(
                constraint[key[0]], constraint[key[1]], assume_unique=True
            )
            if candidates.size == 0:  # degenerate tiny-k layouts
                candidates = np.asarray([cu], dtype=np.int64)
            self._intersections[key] = candidates
        return candidates

    def _chunk(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        # stateless (the intersection cache is derived, not state)
        k = self.num_partitions
        cell_u = hash_to_partition(u, k, seed=self.seed)
        cell_v = hash_to_partition(v, k, seed=self.seed)
        key = cell_u * np.int64(k) + cell_v
        order = stable_argsort_bounded(key, k * k)
        key_sorted = key[order]
        starts = np.flatnonzero(np.r_[True, key_sorted[1:] != key_sorted[:-1]])
        bounds = np.r_[starts, key_sorted.size]
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            group = order[a:b]
            cu, cv = divmod(int(key_sorted[a]), k)
            candidates = self._candidates(cu, cv)
            slots = hash_pair_to_partition(
                u[group], v[group], candidates.size, seed=self.seed + _CHOICE_SEED
            )
            out[group] = candidates[slots]

    def _per_edge(self, stream: EdgeStream, out: np.ndarray, times) -> None:
        k, seed = self.num_partitions, self.seed
        for i, (u, v) in enumerate(zip(stream.src.tolist(), stream.dst.tolist())):
            cu = int(hash_to_partition(u, k, seed=seed))
            cv = int(hash_to_partition(v, k, seed=seed))
            candidates = self._candidates(cu, cv)
            slot = int(
                hash_pair_to_partition(
                    u, v, candidates.size, seed=seed + _CHOICE_SEED
                )
            )
            out[i] = candidates[slot]

    def max_replication(self) -> int:
        """Structural replication cap: ``|row| + |col| - 1``."""
        sets = self._constraint_sets()
        return max(s.size for s in sets)

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        # stateless placement; only the ~2*sqrt(k)-member constraint sets
        k = self.num_partitions
        return 16 * k
