"""Hashing: the PowerGraph random edge placement baseline.

Each edge is placed by a deterministic hash of its endpoint pair.  Fully
stateless (0 bytes of partitioner state, as in Figure 6) and k-insensitive
in runtime (Figure 7), but quality is the worst of the competitor set: the
expected replication factor approaches ``k(1 - (1 - 1/k)^{d})`` per vertex
of degree d, i.e. every high-degree vertex is replicated nearly k times.

Statelessness makes this the purest beneficiary of chunked ingestion:
each chunk's endpoint columns are hashed in one vectorized call, while
:meth:`partition_per_edge` keeps the one-hash-per-edge loop a scalar
streaming system would run.
"""

from __future__ import annotations

import numpy as np

from .._util import hash_pair_to_partition
from ..graph.stream import EdgeStream
from .base import EdgePartitioner

__all__ = ["HashingPartitioner"]


class HashingPartitioner(EdgePartitioner):
    """PowerGraph ``random`` (edge-hash) vertex-cut partitioning."""

    name = "hashing"

    def _chunk(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        out[:] = hash_pair_to_partition(u, v, self.num_partitions, seed=self.seed)

    def _per_edge(self, stream: EdgeStream, out: np.ndarray, times) -> None:
        k, seed = self.num_partitions, self.seed
        for i, (u, v) in enumerate(zip(stream.src.tolist(), stream.dst.tolist())):
            out[i] = hash_pair_to_partition(u, v, k, seed=seed)

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        return 0  # a hash function only
