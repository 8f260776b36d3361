"""Typed message buffers for the partition-local GAS runtime.

Each BSP superstep exchanges two rounds of messages along the mirror
routing table (:class:`~repro.system.placement.ReplicaRoutes`), addressed
by replica slot:

* **gather round** — every mirror of a sync-active vertex sends its local
  gather accumulator to the vertex's master (``mirror_slot -> master_slot``);
* **apply round** — the master sends the applied value back to every
  mirror (``master_slot -> mirror_slot``).

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

from dataclasses import dataclass

import numpy as np

__all__ = ["DensePayload", "RaggedPayload", "MessageBuffer"]

#: wire bytes of the global vertex id carried by every message
VERTEX_HEADER_BYTES = 8


@dataclass
class DensePayload:
    """Fixed-width payload: one accumulator/value per message.

    *Described*, not copied: message ``i`` carries ``table[slots[i]]``
    (``slots=None``: ``table[i]`` — a payload that already is its own
    array, as a transport hands it over).  The in-process runtime
    delivers straight from the description (one fused walk, no
    ``table[slots]`` temporary); ``values`` materializes it for anyone
    who wants the wire form, and is only meaningful while the sending
    slots of ``table`` hold what was sent — within the superstep.
    """

    table: np.ndarray
    slots: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        return self.table if self.slots is None else self.table[self.slots]

    @property
    def nbytes(self) -> int:
        count = self.table.size if self.slots is None else self.slots.size
        return int(count * self.table.itemsize)


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


@dataclass
class MessageBuffer:
    """One sync round's messages, one row per logical message.

    Attributes
    ----------
    round:
        ``"gather"`` (mirror -> master accumulators) or ``"apply"``
        (master -> mirror values).
    src_slot, dst_slot:
        Sending and receiving replica slot per message; the slot names
        the partition (its range in ``LocalIndex.part_indptr``) and the
        local id there at once, so delivery is one fancy-index into the
        flat per-slot arrays.
    payload:
        :class:`DensePayload` or :class:`RaggedPayload`.
    """

    round: str
    src_slot: np.ndarray
    dst_slot: np.ndarray
    payload: DensePayload | RaggedPayload

    @property
    def count(self) -> int:
        """Number of logical messages (the measured message count)."""
        return int(self.src_slot.size)

    @property
    def payload_nbytes(self) -> int:
        """Measured wire bytes: per-message vertex header + payload."""
        return self.count * VERTEX_HEADER_BYTES + self.payload.nbytes
