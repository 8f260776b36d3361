"""Hashing: the PowerGraph random edge placement baseline.

Each edge is placed by a deterministic hash of its endpoint pair.  Fully
stateless (0 bytes of partitioner state, as in Figure 6) and k-insensitive
in runtime (Figure 7), but quality is the worst of the competitor set: the
expected replication factor approaches ``k(1 - (1 - 1/k)^{d})`` per vertex
of degree d, i.e. every high-degree vertex is replicated nearly k times.

Statelessness makes this the purest beneficiary of chunked ingestion: the
chunked path hashes whole ``(m, 2)`` edge arrays in one vectorized call,
while :meth:`partition_per_edge` keeps the one-hash-per-edge loop a
scalar streaming system would run.
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
    supports_chunks = True

    def _assign(self, stream: EdgeStream) -> np.ndarray:
        # the per-edge reference; partition() runs the chunk protocol
        out = np.empty(stream.num_edges, dtype=np.int64)
        k, seed = self.num_partitions, self.seed
        for i, (u, v) in enumerate(zip(stream.src.tolist(), stream.dst.tolist())):
            out[i] = hash_pair_to_partition(u, v, k, seed=seed)
        return out

    def begin_chunks(self, stream: EdgeStream) -> None:
        pass  # stateless

    def partition_chunk(self, edges: np.ndarray) -> np.ndarray:
        return hash_pair_to_partition(
            edges[:, 0], edges[:, 1], self.num_partitions, seed=self.seed
        )

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        return 0  # a hash function only
