"""The persistent worker pool: spawn once, supervise forever.

:class:`PersistentRuntime` owns ``num_workers`` long-lived node processes
(:func:`~repro.distributed.worker.worker_main`), two shared-memory
segments per worker — the edge ring in, the result plane out — and the
framed command/result pipes.  It is the one process backend,
``backend="persistent"``, behind
:func:`~repro.core.distributed.distributed_clugp`, the resident engine of
:class:`~repro.core.distributed.DistributedClugpPartitioner` and
:class:`~repro.service.service.PartitionService`.

Supervision (:meth:`run_stage`) applies the retry policy of
:func:`~repro.reliability.retry.run_reliable` (the thread backend's
retry loop) to real processes, which makes this runtime the oracle for
real crashes, hangs and corrupt payloads:

* **crash** — the result pipe EOFs; the worker is respawned and its
  resident state rebuilt by deterministic replay (re-feed the shard from
  the coordinator's stream, re-run the recorded durable commands with
  their original attempt numbers, so :class:`~repro.reliability.faults.
  FaultInjector` decisions replay identically), then the stage command is
  resent with ``attempt + 1``;
* **hang** — no reply within ``policy.task_timeout``; the process is
  terminated and handled like a crash (reason ``"timeout"``);
* **raise / invalid** — error replies and coordinator-side ``validate``
  quarantines resend the command to the (healthy) resident worker.

Failure counters land in ``StageTimes.counters`` under the same
``<stage>_retries``/``crashes``/``timeouts``/``raises``/``invalid`` names
the thread backend uses, and exhausted retries raise the same
:class:`~repro.reliability.retry.ShardTaskError` — after respawning every
worker whose reply is still outstanding, so the pool serves its next
call from clean pipes.

Shared-memory hygiene: the coordinator creates every segment (tracked by
its resource tracker) and unlinks them all in :meth:`close` — also run
from ``atexit`` and ``__exit__`` — so ``/dev/shm`` is clean even after
injected worker crashes (asserted by the chaos tests).  A worker's result
segment is created with its first shard, sized to it, and replaced
(old one unlinked) when a larger shard arrives; its name travels in
``begin_shard``, so a respawned worker re-attaches during the replayed
feed like any other.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
from multiprocessing import connection as mp_connection

import numpy as np

from .._util import StageTimes, check_positive_int
from ..reliability.retry import RetryPolicy, RetryStats, ShardTaskError, TaskFailure
from .shm import EdgeChunkRing, ResultSegment, RingWriter, create_segment, unlink_segment
from .transport import FramedConnection, ndarray_nbytes
from .worker import worker_main

__all__ = ["PersistentRuntime", "WorkerDiedError"]

#: edges per ring slot (one ingest chunk); matches the pipeline default
DEFAULT_SLOT_EDGES = 1 << 16
#: ring depth — feeding may run this many chunks ahead of the worker copy
DEFAULT_RING_SLOTS = 4


class WorkerDiedError(RuntimeError):
    """A resident worker died outside supervised stage execution."""


class _WorkerHandle:
    """Coordinator-side bookkeeping for one resident node process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.cmd: FramedConnection | None = None
        self.res: FramedConnection | None = None
        self.ring: EdgeChunkRing | None = None
        self.writer: RingWriter | None = None
        self.result: ResultSegment | None = None  # sized by the first feed
        self.shard: tuple[np.ndarray, np.ndarray, int] | None = None
        self.replay: list[dict] = []  # durable commands rebuilding resident state
        self.busy_seconds = 0.0

    @property
    def wire_bytes(self) -> int:
        """Control-plane bytes moved over this worker's pipes so far."""
        sent = self.cmd.bytes_sent if self.cmd else 0
        recv = self.res.bytes_received if self.res else 0
        return sent + recv


class PersistentRuntime:
    """A pool of resident shard workers reachable over shared memory.

    Parameters
    ----------
    num_workers:
        Node processes to hold resident (one shard each).
    slot_edges:
        Edges per shared-memory ring slot — the ingest chunk granularity.
    ring_slots:
        Ring depth per worker; feeding overlaps the worker's copy-out by
        up to ``ring_slots - 1`` chunks.
    """

    def __init__(
        self,
        num_workers: int,
        slot_edges: int = DEFAULT_SLOT_EDGES,
        ring_slots: int = DEFAULT_RING_SLOTS,
    ) -> None:
        self.num_workers = check_positive_int(num_workers, "num_workers")
        self.slot_edges = check_positive_int(slot_edges, "slot_edges")
        self.ring_slots = check_positive_int(ring_slots, "ring_slots")
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix fallback
            self._ctx = multiprocessing.get_context()
        self._segments = []
        self._closed = False
        #: measured ndarray bytes pickled on the ingest (edge) plane —
        #: the zero-copy gate; stays 0 unless the hot path regresses
        self.edge_pickle_bytes = 0
        self.workers: list[_WorkerHandle] = []
        for index in range(self.num_workers):
            handle = _WorkerHandle(index)
            shm = create_segment(EdgeChunkRing.nbytes(self.slot_edges, self.ring_slots))
            self._segments.append(shm)
            handle.ring = EdgeChunkRing(shm, self.slot_edges, self.ring_slots)
            handle.writer = RingWriter(handle.ring)
            self.workers.append(handle)
            self._spawn(handle)
        atexit.register(self.close)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or restart) one worker process on fresh pipes."""
        cmd_r, cmd_w = self._ctx.Pipe(duplex=False)
        res_r, res_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                handle.index, cmd_r, res_w,
                handle.ring.shm.name, self.slot_edges, self.ring_slots,
            ),
            daemon=True,
        )
        process.start()
        cmd_r.close()
        res_w.close()
        handle.process = process
        handle.cmd = FramedConnection(cmd_w)
        handle.res = FramedConnection(res_r)
        handle.writer.reset()

    def _kill(self, handle: _WorkerHandle) -> None:
        """Terminate one worker without waiting on its state."""
        if handle.cmd is not None:
            handle.cmd.close()
        if handle.res is not None:
            handle.res.close()
        proc = handle.process
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck in uninterruptible IO
                proc.kill()
                proc.join(timeout=5)
        handle.process = None

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Restart a dead worker and rebuild its resident state by replay.

        The shard is re-fed from the coordinator's own arrays and every
        recorded durable command re-executed with the attempt number it
        originally succeeded at — injector decisions are pure functions
        of ``(seed, stage, node, attempt)``, so the replay is fault-free
        exactly when the original success was, and the rebuilt state is
        bit-identical (workers are deterministic functions of their
        command history).
        """
        self._kill(handle)
        self._spawn(handle)
        if handle.shard is not None:
            src, dst, num_vertices = handle.shard
            self._feed(handle, src, dst, num_vertices)
        for msg in handle.replay:
            reply = self.call(handle.index, msg)
            del reply  # recomputed only to rebuild resident worker state

    def close(self) -> None:
        """Shut every worker down and unlink every shared segment."""
        if self._closed:
            return
        self._closed = True
        for handle in self.workers:
            if handle.cmd is not None:
                try:
                    handle.cmd.send({"op": "shutdown"})
                except Exception:
                    pass
        for handle in self.workers:
            proc = handle.process
            if proc is not None:
                proc.join(timeout=2)
            self._kill(handle)
            if handle.ring is not None:
                handle.ring.close()
                handle.ring = None
            if handle.result is not None:
                handle.result.close()
                handle.result = None
        for shm in self._segments:
            unlink_segment(shm)
        self._segments = []
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def __enter__(self) -> "PersistentRuntime":
        """Context-manager entry (workers are already running)."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: full shutdown + segment unlink."""
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # ingest plane
    # ------------------------------------------------------------------ #

    def feed_shard(
        self, worker: int, src: np.ndarray, dst: np.ndarray, num_vertices: int
    ) -> None:
        """Stream one shard to a worker through its shared-memory ring.

        The coordinator keeps a reference to the shard arrays so a
        crashed worker can be re-fed during respawn.  Only ``(slot,
        length)`` descriptors cross the pickle boundary; the audited
        ndarray bytes of every ingest command accumulate into
        :attr:`edge_pickle_bytes` (gated ``== 0`` in the bench).
        """
        handle = self.workers[worker]
        handle.shard = (src, dst, num_vertices)
        handle.replay = []
        if handle.result is None or handle.result.capacity < src.size:
            self._replace_result_segment(handle, src.size)
        self._feed(handle, src, dst, num_vertices)

    def _replace_result_segment(self, handle: _WorkerHandle, num_edges: int) -> None:
        """Give a worker a result plane that holds ``num_edges`` values.

        Same ownership as the ring: created (and later unlinked) here,
        attached untracked by the worker when ``begin_shard`` names it.
        """
        if handle.result is not None:
            self._segments.remove(handle.result.shm)
            handle.result.close()
            unlink_segment(handle.result.shm)
        shm = create_segment(max(1, num_edges) * 8)
        self._segments.append(shm)
        handle.result = ResultSegment(shm)

    def _feed(self, handle, src, dst, num_vertices) -> None:
        def wait_ack() -> int:
            reply = handle.res.recv()
            if "ack" not in reply:
                raise WorkerDiedError(
                    f"worker {handle.index}: unexpected reply during feed: {reply}"
                )
            return reply["ack"]

        self._send_ingest(
            handle,
            {
                "op": "begin_shard", "num_vertices": num_vertices,
                "expected_edges": src.size, "result_segment": handle.result.shm.name,
            },
        )
        for start in range(0, src.size, self.slot_edges):
            stop = min(start + self.slot_edges, src.size)
            slot = handle.writer.next_slot(wait_ack)
            length = handle.ring.write(slot, src[start:stop], dst[start:stop])
            self._send_ingest(handle, {"op": "chunk", "slot": slot, "length": length})
        handle.writer.drain(wait_ack)
        self._send_ingest(handle, {"op": "end_shard"})
        reply = handle.res.recv()
        fed = reply.get("payload")
        if fed != src.size:
            raise WorkerDiedError(
                f"worker {handle.index}: fed {src.size} edges but worker holds {fed}"
            )

    def _send_ingest(self, handle: _WorkerHandle, msg: dict) -> None:
        """Send an ingest-plane command, auditing it for pickled arrays."""
        self.edge_pickle_bytes += ndarray_nbytes(msg)
        handle.cmd.send(msg)

    # ------------------------------------------------------------------ #
    # command plane
    # ------------------------------------------------------------------ #

    def call(self, worker: int, msg: dict):
        """One unsupervised round trip; returns the reply payload.

        Used by the replay path, which rebuilds a respawned worker's
        resident state; a worker death here raises
        :class:`WorkerDiedError`.
        """
        handle = self.workers[worker]
        try:
            handle.cmd.send(msg)
            reply = handle.res.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise WorkerDiedError(
                f"worker {worker} died during {msg.get('op')!r}"
            ) from exc
        if not reply.get("ok"):
            raise RuntimeError(
                f"worker {worker} failed {msg.get('op')!r}:\n{reply.get('error')}"
            )
        handle.busy_seconds += reply.get("seconds", 0.0)
        return reply.get("payload")

    def run_stage(
        self,
        stage: str,
        commands: list[dict],
        policy: RetryPolicy | None = None,
        inject=None,
        times: StageTimes | None = None,
        validate=None,
        durable: bool = False,
    ) -> list[dict]:
        """Supervised fan-out of one stage command per worker.

        Returns per-worker dicts ``{"payload", "seconds"}`` in worker
        order, once every worker has answered (a barrier).  A reply that
        came back over the result plane carries a length instead of a
        payload; its payload here is a view of the worker's result
        segment, valid until that worker's next such reply — copy it out
        before running another stage.  ``durable=True`` records each
        worker's successful command for crash replay.  Raises
        :class:`~repro.reliability.retry.ShardTaskError` when a worker
        exhausts ``policy.max_retries``.
        """
        if len(commands) != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} commands, got {len(commands)}"
            )
        policy = policy or RetryPolicy()
        stats = RetryStats()
        results: list[dict | None] = [None] * self.num_workers
        attempts = [0] * self.num_workers
        deadlines: dict[int, float | None] = {}
        pending = set(range(self.num_workers))
        last_error: BaseException | None = None

        def dispatch(index: int) -> None:
            msg = dict(commands[index])
            msg.update(
                stage=stage, node=index, num_nodes=self.num_workers,
                attempt=attempts[index], inject=inject,
            )
            stats.attempts += 1
            if attempts[index]:
                stats.retries += 1
                pause = policy.backoff(attempts[index])
                stats.backoff_seconds += pause
                if pause > 0:
                    time.sleep(pause)
            self.workers[index].cmd.send(msg)
            deadlines[index] = (
                None if policy.task_timeout is None
                else time.monotonic() + policy.task_timeout
            )

        def fail(index: int, reason: str, error: BaseException | None) -> None:
            nonlocal last_error
            failure = TaskFailure(index, reason, attempts[index], error)
            stats.record(failure)
            if error is not None:
                last_error = error
            attempts[index] += 1
            if attempts[index] > policy.max_retries:
                # leave no reply unread for the runtime's next call: the
                # failed worker if it died or hung, and every worker that
                # still owes this stage a reply, is respawned (replay
                # rebuilds its state as of the previous stage)
                for other in sorted(pending):
                    if other != index or reason in ("crash", "timeout"):
                        self._respawn(self.workers[other])
                stats.report(stage, times)
                raise ShardTaskError(
                    f"stage {stage!r}: worker {index} failed after "
                    f"{policy.max_retries + 1} attempts: {failure.describe()}"
                ) from last_error
            if reason in ("crash", "timeout"):
                self._respawn(self.workers[index])
            dispatch(index)

        for index in sorted(pending):
            dispatch(index)
        while pending:
            timeout = None
            now = time.monotonic()
            live = [d for d in (deadlines[i] for i in pending) if d is not None]
            if live:
                timeout = max(0.0, min(live) - now)
            conn_of = {self.workers[i].res.conn: i for i in pending}
            ready = mp_connection.wait(list(conn_of), timeout=timeout)
            if not ready:
                now = time.monotonic()
                for index in sorted(pending):
                    deadline = deadlines[index]
                    if deadline is not None and deadline <= now:
                        fail(index, "timeout", None)
                continue
            for conn in ready:
                index = conn_of[conn]
                try:
                    reply = self.workers[index].res.recv()
                except (EOFError, OSError) as exc:
                    fail(index, "crash", exc)
                    continue
                if not reply.get("ok"):
                    fail(index, "raise", RuntimeError(reply.get("error", "?")))
                    continue
                if "result_length" in reply:
                    payload = self.workers[index].result.read(reply["result_length"])
                else:
                    payload = reply.get("payload")
                if validate is not None:
                    problem = validate(payload, index)
                    if problem:
                        fail(index, "invalid", ValueError(f"{stage}: {problem}"))
                        continue
                seconds = reply.get("seconds", 0.0)
                self.workers[index].busy_seconds += seconds
                results[index] = {"payload": payload, "seconds": seconds}
                pending.discard(index)
                if durable:
                    msg = dict(commands[index])
                    msg.update(
                        stage=stage, node=index, num_nodes=self.num_workers,
                        attempt=attempts[index], inject=inject,
                    )
                    self.workers[index].replay.append(msg)
        stats.report(stage, times)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    @property
    def wire_bytes(self) -> int:
        """Total control-plane bytes over every worker pipe so far."""
        return sum(h.wire_bytes for h in self.workers)

    def busy_snapshot(self) -> list[float]:
        """Per-worker cumulative compute seconds (for busy/idle splits)."""
        return [h.busy_seconds for h in self.workers]
