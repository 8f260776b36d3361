"""Fault tolerance for the CLUGP runtime.

Four pieces, one goal — worker death, stragglers, corrupt payloads, and
garbage input are *normal operating conditions*, not crashes:

* :mod:`~repro.reliability.retry` — retrying stage execution with
  per-task deadlines, a fresh thread pool per attempt, and
  coordinator-side result validation (:func:`run_reliable`);
* :mod:`~repro.reliability.checkpoint` — versioned checksummed atomic
  snapshots plus a write-ahead batch journal for bit-identical
  :meth:`PartitionService.resume`;
* :mod:`~repro.reliability.faults` — deterministic seed-driven chaos
  (:class:`FaultInjector`) so the recovery paths run in CI;
* :mod:`~repro.reliability.ingest` — strict/lenient edge sanitization
  with typed errors (:func:`sanitize_edges`).

See ``docs/reliability.md`` for the operator guide and DESIGN.md §9 for
the invariants.
"""

from .checkpoint import (
    BatchJournal,
    CheckpointError,
    CheckpointManager,
    read_checkpoint,
    write_checkpoint,
)
from .faults import FAULT_KINDS, FaultInjector, FaultSpecError, InjectedCrash
from .ingest import (
    INGEST_MODES,
    DropReport,
    EdgeOverflowError,
    IngestError,
    MalformedEdgeError,
    TruncatedPayloadError,
    VertexRangeError,
    sanitize_edges,
)
from .retry import RetryPolicy, RetryStats, ShardTaskError, TaskFailure, run_reliable

__all__ = [
    "BatchJournal",
    "CheckpointError",
    "CheckpointManager",
    "read_checkpoint",
    "write_checkpoint",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpecError",
    "InjectedCrash",
    "INGEST_MODES",
    "DropReport",
    "EdgeOverflowError",
    "IngestError",
    "MalformedEdgeError",
    "TruncatedPayloadError",
    "VertexRangeError",
    "sanitize_edges",
    "RetryPolicy",
    "RetryStats",
    "ShardTaskError",
    "TaskFailure",
    "run_reliable",
]
