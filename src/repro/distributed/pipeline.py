"""The persistent backend's stage runner.

The distributed protocol is written once, in
:mod:`repro.core.distributed`, over a two-method stage runner
(``run`` / ``finish``).  This module is that runner for
``backend="persistent"``: the same stages, the same messages, the same
:class:`~repro.core.distributed.DistributedResult` as the ``thread``
runner — bit for bit, the bench gate — on worker processes instead of
pool threads.  Only the transport differs:

**In.**  Shards stream to the workers once through shared-memory rings
(:meth:`~repro.distributed.runtime.PersistentRuntime.feed_shard`); every
stage then runs on the worker's *resident*
:class:`~repro.core.distributed.NodeStages`, so a stage message carries
only what is new (the boundary resolution, the cluster decision, one
quota row) and no shard or node state crosses a pipe.

**Out.**  Small payloads (summaries, graph contributions, load vectors)
come back in the reply; the per-edge result of ``commit`` comes back
through the worker's result segment and the reply is its length.

Every stage is a barrier: the coordinator's steps between stages are
microseconds to a few milliseconds against shard stages of tens, so there
is nothing for an arrival-order schedule to hide (DESIGN.md §11.2 has the
measurement that retired one).  ``walls["critical_path"]`` is the
*measured* end-to-end wall of the call; per-worker busy/idle splits
(``node<i>_busy`` / ``node<i>_idle``) show how well the pool was fed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from .._util import StageTimes, Timer
from ..core.distributed import NodeStages
from .runtime import PersistentRuntime

__all__ = ["resident_stages"]


class _ResidentStages:
    """Stage runner over a :class:`PersistentRuntime` (see module doc)."""

    def __init__(self, stream, ranges, runtime, policy, inject):
        self.runtime = runtime
        self.policy = policy
        self.inject = inject
        self.times = times = StageTimes()
        self._busy_before = runtime.busy_snapshot()
        self._wire_before = runtime.wire_bytes
        self._start = time.perf_counter()
        audit_before = runtime.edge_pickle_bytes
        with Timer() as timer:
            for node, (start, stop) in enumerate(ranges):
                runtime.feed_shard(
                    node, stream.src[start:stop], stream.dst[start:stop],
                    stream.num_vertices,
                )
        times.add_wall("ingest", timer.elapsed)
        # this call's measured pickled-ndarray bytes on the ingest plane —
        # the zero-copy bench gate reads this counter and expects 0
        times.bump("edge_pickle_bytes", runtime.edge_pickle_bytes - audit_before)

    def run(self, stage: str, op: str, msgs: list[dict], validate=None):
        """``NodeStages.<op>`` on every resident node; ``(payload,
        node_seconds)`` in node order.  Stages that leave node state are
        recorded for crash replay."""
        results = self.runtime.run_stage(
            stage, [{"op": op, **msg} for msg in msgs],
            policy=self.policy, inject=self.inject, times=self.times,
            validate=validate, durable=op in NodeStages.RESIDENT,
        )
        return [(r["payload"], r["seconds"]) for r in results]

    def finish(self) -> None:
        """Land what the transport measured: the end-to-end wall (stage
        maxima miss the pipes), busy/idle per worker, control-plane bytes."""
        times = self.times
        elapsed = time.perf_counter() - self._start
        times.add_wall("critical_path", elapsed)
        for i, (before, after) in enumerate(
            zip(self._busy_before, self.runtime.busy_snapshot())
        ):
            busy = after - before
            times.add_overlap(f"node{i}_busy", busy)
            times.add_overlap(f"node{i}_idle", max(0.0, elapsed - busy))
        times.bump("control_plane_bytes", self.runtime.wire_bytes - self._wire_before)


@contextmanager
def resident_stages(stream, ranges, runtime, policy, inject):
    """The stage runner for one distributed call on a persistent pool.

    ``runtime=None`` spawns a pool for this call (and tears it down,
    segments unlinked); passing a resident runtime reuses its workers, so
    the spawn cost is paid once across calls.
    """
    owned = runtime is None
    if owned:
        runtime = PersistentRuntime(len(ranges))
    try:
        if runtime.num_workers != len(ranges):
            raise ValueError(
                f"runtime has {runtime.num_workers} workers but num_nodes={len(ranges)}"
            )
        yield _ResidentStages(stream, ranges, runtime, policy, inject)
    finally:
        if owned:
            runtime.close()
