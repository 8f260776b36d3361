"""Persistent shared-memory worker runtime (the ``persistent`` backend).

Long-lived node processes holding resident shard + clustering state,
fed over ``multiprocessing.shared_memory`` rings and read back over
per-worker result segments: the resident transport under
``distributed_clugp``'s protocol.  See ``docs/distributed.md``.
"""

from .runtime import PersistentRuntime, WorkerDiedError
from .shm import SHM_PREFIX, EdgeChunkRing, RingWriter, leaked_segments
from .transport import FramedConnection, ndarray_nbytes

__all__ = [
    "PersistentRuntime",
    "WorkerDiedError",
    "SHM_PREFIX",
    "EdgeChunkRing",
    "RingWriter",
    "leaked_segments",
    "FramedConnection",
    "ndarray_nbytes",
]
