"""Typed message payloads for the partition-local GAS runtime.

Each BSP superstep exchanges two rounds of messages along the selected
rows of the mirror routing table
(:class:`~repro.system.placement.ReplicaRoutes`), addressed by replica
slot: in the **gather round** every mirror of a sync-active vertex sends
its local gather accumulator to the vertex's master (``mirror_slot ->
master_slot``); in the **apply round** the master sends the applied
value back (``master_slot -> mirror_slot``).

A round's payload holds one value per row: a fixed-width
:class:`DensePayload` (PageRank partial sums, SSSP/CC partial minima,
apply values), a :class:`RaggedPayload` (label histograms for label
propagation, delimited by an ``indptr``), or — where rows cross a process
boundary — the wire array itself.

``SuperstepCost.messages`` / ``bytes`` are *measured*: the selected rows,
and per row an 8-byte vertex id header plus the payload's ``nbytes``.
With the default 8-byte dense accumulators this is exactly the 16
bytes/message the :class:`~repro.system.network.NetworkModel` assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DensePayload", "RaggedPayload"]

#: wire bytes of the global vertex id carried by every message
VERTEX_HEADER_BYTES = 8


@dataclass
class DensePayload:
    """Fixed-width payload: one accumulator/value per message.

    *Described*, not copied: message ``i`` carries ``table[slots[i]]``.
    The in-process runtime delivers straight from the description (one
    fused walk, no ``table[slots]`` temporary); ``values`` materializes
    it for anyone who wants the wire form, and is only meaningful while
    the sending slots of ``table`` hold what was sent — within the
    superstep.
    """

    table: np.ndarray
    slots: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.table[self.slots]

    @property
    def nbytes(self) -> int:
        return int(self.slots.size * self.table.itemsize)


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
