"""Typed message buffers for the partition-local GAS runtime.

Each BSP superstep exchanges two rounds of messages along the mirror
routing table (:class:`~repro.system.placement.ReplicaRoutes`):

* **gather round** — every mirror of a sync-active vertex sends its local
  gather accumulator to the vertex's master (``mirror_part -> master_part``);
* **apply round** — the master sends the applied value back to every
  mirror (``master_part -> mirror_part``).

A buffer holds one round's messages as flat columns: one row per logical
message, with either a fixed-width :class:`DensePayload` (one accumulator
value per message — PageRank partial sums, SSSP/CC partial minima, apply
values) or a :class:`RaggedPayload` (variable-length label histograms for
label propagation, delimited by an ``indptr``).

``SuperstepCost.messages`` / ``bytes`` are *measured* off these buffers:
``count`` is the number of rows and ``payload_nbytes`` the wire payload
(8-byte vertex id header + payload columns).  With the default 8-byte
dense accumulators this is exactly the 16 bytes/message the
:class:`~repro.system.network.NetworkModel` assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import group_by_bounded, ragged_take_indices

__all__ = ["DensePayload", "RaggedPayload", "MessageBuffer"]

#: wire bytes of the global vertex id carried by every message
VERTEX_HEADER_BYTES = 8


@dataclass
class DensePayload:
    """Fixed-width payload: one accumulator/value per message."""

    values: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes)

    def take(self, rows: np.ndarray) -> "DensePayload":
        return DensePayload(self.values[rows])


@dataclass
class RaggedPayload:
    """Variable-width payload: per-message (label, count) histograms.

    Message ``i`` carries the histogram rows
    ``labels[indptr[i]:indptr[i+1]]`` / ``counts[indptr[i]:indptr[i+1]]``.
    """

    indptr: np.ndarray
    labels: np.ndarray
    counts: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.labels.nbytes + self.counts.nbytes)

    def take(self, rows: np.ndarray) -> "RaggedPayload":
        lengths = self.indptr[rows + 1] - self.indptr[rows]
        out_indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=out_indptr[1:])
        flat = ragged_take_indices(self.indptr[rows], lengths, out_indptr)
        return RaggedPayload(out_indptr, self.labels[flat], self.counts[flat])


@dataclass
class MessageBuffer:
    """One sync round's messages, one row per logical message.

    Attributes
    ----------
    round:
        ``"gather"`` (mirror -> master accumulators) or ``"apply"``
        (master -> mirror values).
    vertex:
        Global vertex id each message is about.
    src_part, dst_part:
        Sending and receiving partition per message.
    dst_local:
        The vertex's local id at the *receiving* partition, so delivery
        is a fancy-index into the receiver's local arrays.
    payload:
        :class:`DensePayload` or :class:`RaggedPayload`.
    """

    round: str
    vertex: np.ndarray
    src_part: np.ndarray
    dst_part: np.ndarray
    dst_local: np.ndarray
    payload: DensePayload | RaggedPayload
    _dst_groups: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def count(self) -> int:
        """Number of logical messages (the measured message count)."""
        return int(self.vertex.size)

    @property
    def payload_nbytes(self) -> int:
        """Measured wire bytes: per-message vertex header + payload."""
        return self.count * VERTEX_HEADER_BYTES + self.payload.nbytes

    def for_partition(self, pid: int) -> tuple[np.ndarray, DensePayload | RaggedPayload]:
        """Deliver: (receiver-local vertex ids, payload) for partition ``pid``.

        Rows are grouped by receiver once (stable bounded radix argsort,
        so within-partition message order is buffer order) and sliced per
        call — one O(rows) pass instead of one scan per partition.
        """
        if self._dst_groups is None:
            k = int(self.dst_part.max()) + 1 if self.dst_part.size else 0
            self._dst_groups = group_by_bounded(self.dst_part, k)
        order, indptr = self._dst_groups
        if pid + 1 >= indptr.size:
            rows = np.empty(0, dtype=np.int64)
        else:
            rows = order[indptr[pid] : indptr[pid + 1]]
        return self.dst_local[rows], self.payload.take(rows)
