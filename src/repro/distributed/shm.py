"""Shared-memory segments: the edge-chunk ring and the result plane.

The persistent worker runtime moves edge data between the coordinator and
its resident node processes through ``multiprocessing.shared_memory``
segments instead of pickled task payloads: the coordinator writes a chunk
of ``(src, dst)`` int64 pairs into a ring slot and sends only a
``(slot, length)`` descriptor over the command pipe — zero copies of edge
bytes ever cross a pickle boundary on the ingest path.  The way back is
the mirror image: a worker writes its shard's edge partition into its
:class:`ResultSegment` and replies with a length.

Lifecycle rules (the part that goes wrong in real deployments):

* the **coordinator owns every segment** — it creates them (tracked by its
  own ``resource_tracker``, so even a SIGKILL'd coordinator leaks nothing
  past interpreter teardown) and unlinks them in ``close()``;
* **workers attach untracked** — a forked/spawned child must not register
  the segment with *its* resource tracker, or the first worker death
  (including injected chaos crashes) would unlink a segment the
  coordinator and its siblings still use.  Python 3.13 grew
  ``SharedMemory(..., track=False)`` for exactly this; on older
  interpreters :func:`attach_segment` just attaches — fork children
  share the coordinator's tracker, so the duplicate registration is a
  set-level no-op (see the function docstring);
* every segment name carries :data:`SHM_PREFIX` and the creating pid, so
  a process can assert its own ``/dev/shm`` cleanliness with
  :func:`leaked_segments`, whatever other runs share the host.
"""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SHM_PREFIX",
    "create_segment",
    "attach_segment",
    "unlink_segment",
    "leaked_segments",
    "EdgeChunkRing",
    "RingWriter",
    "ResultSegment",
]

#: every segment the runtime creates is named ``clugp-shm-<pid>-<nonce>``
SHM_PREFIX = "clugp-shm-"

_SHM_DIR = "/dev/shm"


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create a coordinator-owned segment with a recognizable name.

    The creating process keeps normal resource-tracker registration: if
    the coordinator dies without ``close()``, its tracker unlinks the
    segment at interpreter teardown (with a warning) instead of leaking
    it into ``/dev/shm`` forever.
    """
    name = f"{SHM_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
    return shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking tracker ownership.

    Workers call this after fork/spawn.  Python 3.13 grew
    ``SharedMemory(..., track=False)`` for exactly this case.  On older
    interpreters the attach re-registers the name — but multiprocessing
    children inherit the *coordinator's* tracker process, whose cache is
    a per-type set, so the duplicate registration is a no-op and the
    coordinator's ``unlink()`` performs the single balanced unregister.
    Explicitly unregistering here would instead erase the coordinator's
    registration from the shared set (and make the tracker log spurious
    KeyErrors at unlink time), so the fallback deliberately does nothing.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track kwarg; see docstring
        return shared_memory.SharedMemory(name=name)


def unlink_segment(shm: shared_memory.SharedMemory | None) -> None:
    """Close and unlink a segment, tolerating repeat/raced teardown."""
    if shm is None:
        return
    try:
        shm.close()
    except Exception:  # pragma: no cover - already-closed race
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    except Exception:  # pragma: no cover - platform-specific teardown
        pass


def leaked_segments() -> list[str]:
    """Names of the segments this process created still in ``/dev/shm``.

    The chaos tests assert this is empty after ``close()`` even when
    workers were crash-injected mid-stage; another run's segments on the
    same host are not counted.  On platforms without a ``/dev/shm`` view
    this returns an empty list (nothing to audit).
    """
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    mine = f"{SHM_PREFIX}{os.getpid()}-"
    return sorted(e for e in entries if e.startswith(mine))


class EdgeChunkRing:
    """A fixed ring of edge-chunk slots inside one shared segment.

    Layout: ``slots`` slots of ``slot_edges`` edges each; slot ``i`` holds
    ``src[0:m]`` then ``dst[0:m]`` as contiguous int64 rows (``m`` travels
    in the pipe descriptor).  The coordinator writes round-robin and the
    worker copies each chunk into its resident shard arrays, so a slot is
    reusable as soon as its acknowledgement arrives — flow control lives
    in :class:`RingWriter`, not here.
    """

    def __init__(self, shm: shared_memory.SharedMemory, slot_edges: int, slots: int) -> None:
        self.shm = shm
        self.slot_edges = int(slot_edges)
        self.slots = int(slots)
        self._array = np.ndarray(
            (self.slots, 2, self.slot_edges), dtype=np.int64, buffer=shm.buf
        )

    @staticmethod
    def nbytes(slot_edges: int, slots: int) -> int:
        """Segment size needed for a ring of the given geometry."""
        return int(slots) * 2 * int(slot_edges) * 8

    def write(self, slot: int, src: np.ndarray, dst: np.ndarray) -> int:
        """Copy one chunk into ``slot``; returns the chunk length."""
        m = int(src.size)
        if m > self.slot_edges:
            raise ValueError(f"chunk of {m} edges exceeds slot capacity {self.slot_edges}")
        self._array[slot, 0, :m] = src
        self._array[slot, 1, :m] = dst
        return m

    def read(self, slot: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of one chunk's (src, dst) rows — valid until overwritten."""
        return self._array[slot, 0, :length], self._array[slot, 1, :length]

    def close(self) -> None:
        """Drop this process's mapping (does not unlink the segment)."""
        self._array = None
        try:
            self.shm.close()
        except Exception:  # pragma: no cover - already-closed race
            pass


class ResultSegment:
    """One worker's result plane: a flat int64 buffer in a shared segment.

    The worker copies in one per-edge result (:meth:`write` — its shard's
    edge partition) and replies with the length; the coordinator takes
    that many values back as a zero-copy view (:meth:`read`).  One writer, one
    reader, strictly alternating under the command/reply handshake, so no
    flow control is needed.  The coordinator sizes the segment to the
    shard it feeds and replaces it when a larger shard arrives.
    """

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.shm = shm
        self._array = np.ndarray((shm.size // 8,), dtype=np.int64, buffer=shm.buf)

    @property
    def capacity(self) -> int:
        """Values the segment can hold."""
        return int(self._array.size)

    def write(self, values: np.ndarray) -> int:
        """Copy ``values`` to the front of the buffer; returns the length."""
        m = int(values.size)
        if m > self.capacity:
            raise ValueError(f"result of {m} values exceeds segment capacity {self.capacity}")
        self._array[:m] = values
        return m

    def read(self, length: int) -> np.ndarray:
        """View of the first ``length`` values — valid until the next write."""
        if not 0 <= length <= self.capacity:
            raise ValueError(f"result length {length} outside segment capacity {self.capacity}")
        return self._array[:length]

    def close(self) -> None:
        """Drop this process's mapping (does not unlink the segment)."""
        self._array = None
        try:
            self.shm.close()
        except Exception:  # pragma: no cover - already-closed race
            pass


class RingWriter:
    """Coordinator-side flow control over an :class:`EdgeChunkRing`.

    Tracks in-flight slots; :meth:`next_slot` yields the next free slot,
    blocking (via the caller-supplied ``wait_ack``) only when every slot
    is occupied — so feeding overlaps the worker's copy-out by up to
    ``slots - 1`` chunks.
    """

    def __init__(self, ring: EdgeChunkRing) -> None:
        self.ring = ring
        self._in_flight: list[int] = []

    @property
    def in_flight(self) -> int:
        """Chunks written but not yet acknowledged."""
        return len(self._in_flight)

    def next_slot(self, wait_ack) -> int:
        """Reserve the next ring slot, draining one ack if the ring is full."""
        if len(self._in_flight) >= self.ring.slots:
            self.ack(wait_ack())
        slot = (self._in_flight[-1] + 1) % self.ring.slots if self._in_flight else 0
        self._in_flight.append(slot)
        return slot

    def ack(self, slot: int) -> None:
        """Mark ``slot`` reusable (acks arrive in FIFO chunk order)."""
        if not self._in_flight or self._in_flight[0] != slot:
            raise RuntimeError(
                f"out-of-order ring ack: got slot {slot}, expected "
                f"{self._in_flight[0] if self._in_flight else 'none'}"
            )
        self._in_flight.pop(0)

    def drain(self, wait_ack) -> None:
        """Block until every in-flight chunk is acknowledged."""
        while self._in_flight:
            self.ack(wait_ack())

    def reset(self) -> None:
        """Forget in-flight state (after a worker respawn re-feed)."""
        self._in_flight.clear()
