"""The persistent node process: resident shard state, command loop.

One :func:`worker_main` process per ingest node, spawned once by
:class:`~repro.distributed.runtime.PersistentRuntime` and reused across
every stage of every ``distributed_clugp`` call (and across calls).  The
worker owns:

* its **shard** — edge chunks copied out of the shared-memory ring into
  resident int64 arrays (the node's local crawl buffer);
* its **pipeline state** — a :class:`~repro.core.distributed.NodeStages`
  whose clustering, global-cluster map and vertex -> partition view
  survive between the stages, so each later stage ships only what is new
  (the resolution, the decision, one quota row);
* its **result plane** — the coordinator-owned segment named by
  ``begin_shard``, into which ``commit`` writes the edge partition so the
  reply is a length, not a pickled array.

Protocol: commands arrive as dicts over the framed command pipe; every
stage command gets exactly one reply ``{"node", "ok", "payload"/"error",
"seconds"}`` where ``seconds`` is the worker's measured compute time (the
coordinator's busy/idle accounting).  Stage commands carry the PR-8
:class:`~repro.reliability.faults.FaultInjector` plus their attempt
number, and the worker applies ``pre_task``/``post_task`` exactly like
the thread backend's retry loop — except that an injected ``crash`` is a
real ``os._exit`` that the coordinator observes as a broken pipe and
answers with respawn + deterministic replay.
"""

from __future__ import annotations

import traceback

import numpy as np

from .._util import Timer
from ..core.distributed import NodeStages
from ..graph.stream import EdgeStream
from .shm import EdgeChunkRing, ResultSegment, attach_segment
from .transport import FramedConnection

__all__ = ["worker_main"]


class _WorkerState:
    """Everything resident between commands (shard, pipeline)."""

    def __init__(self, node: int) -> None:
        self.node = node
        self.num_vertices = 0
        self.src = self.dst = np.empty(0, dtype=np.int64)
        self.count = 0
        self.stages = NodeStages(node)
        self.result: ResultSegment | None = None
        self._shard: EdgeStream | None = None

    def shard(self) -> EdgeStream:
        """The resident shard as an :class:`EdgeStream` (zero-copy views),
        built once per feed."""
        if self._shard is None:
            self._shard = EdgeStream(
                self.src[: self.count], self.dst[: self.count], self.num_vertices
            )
        return self._shard

    def close(self) -> None:
        """Drop the result-plane mapping."""
        if self.result is not None:
            self.result.close()
            self.result = None


def _handle_begin_shard(state: _WorkerState, msg: dict) -> None:
    state.num_vertices = msg["num_vertices"]
    cap = max(1, int(msg["expected_edges"]))
    state.src = np.empty(cap, dtype=np.int64)
    state.dst = np.empty(cap, dtype=np.int64)
    state.count = 0
    state._shard = None
    state.stages = NodeStages(state.node)  # nothing of the old shard survives
    name = msg["result_segment"]
    if state.result is None or state.result.shm.name != name:
        state.close()
        state.result = ResultSegment(attach_segment(name))


def _handle_chunk(state: _WorkerState, ring: EdgeChunkRing, msg: dict) -> None:
    src, dst = ring.read(msg["slot"], msg["length"])
    need = state.count + src.size
    if need > state.src.size:  # defensive; the coordinator pre-sizes exactly
        grown = max(need, 2 * state.src.size)
        for name in ("src", "dst"):
            buf = np.empty(grown, dtype=np.int64)
            buf[: state.count] = getattr(state, name)[: state.count]
            setattr(state, name, buf)
    state.src[state.count : need] = src
    state.dst[state.count : need] = dst
    state.count = need
    state._shard = None


def _run_stage_op(state: _WorkerState, msg: dict) -> dict:
    """One protocol stage on the resident node; returns the reply body.

    ``commit``'s per-edge result goes back over the result plane — the
    reply carries its length; every other stage's payload is small and
    travels in the reply itself.
    """
    op = msg["op"]
    inject = msg.get("inject")
    if inject is not None:
        inject.pre_task(
            msg["stage"], state.node, msg["num_nodes"], msg["attempt"], in_process=True
        )
    payload = getattr(state.stages, op)(state.shard(), msg)
    if inject is not None:
        payload = inject.post_task(
            msg["stage"], state.node, msg["num_nodes"], msg["attempt"], payload
        )
    if op == "commit":
        return {"result_length": state.result.write(payload)}
    return {"payload": payload}


def worker_main(node, cmd_conn, res_conn, ring_name, slot_edges, ring_slots) -> None:
    """Entry point of one persistent node process.

    Attaches the shared edge ring untracked (the coordinator owns the
    segment), then serves commands until ``shutdown`` or a dropped
    command pipe.  Handler exceptions become error replies — the
    coordinator counts them as ``raise`` failures and retries per its
    :class:`~repro.reliability.retry.RetryPolicy`; only an injected crash
    (``os._exit``) or a kill takes the process down.
    """
    cmd = FramedConnection(cmd_conn)
    res = FramedConnection(res_conn)
    ring = EdgeChunkRing(attach_segment(ring_name), slot_edges, ring_slots)
    state = _WorkerState(node)
    try:
        while True:
            try:
                msg = cmd.recv()
            except (EOFError, OSError):
                break
            op = msg["op"]
            if op == "shutdown":
                break
            if op == "begin_shard":
                _handle_begin_shard(state, msg)
                continue
            if op == "chunk":
                _handle_chunk(state, ring, msg)
                res.send({"node": node, "ok": True, "ack": msg["slot"]})
                continue
            if op == "end_shard":
                res.send(
                    {"node": node, "ok": True, "payload": state.count, "seconds": 0.0}
                )
                continue
            if op == "ping":
                res.send({"node": node, "ok": True, "payload": "pong", "seconds": 0.0})
                continue
            try:
                with Timer() as timer:  # a protocol stage: a NodeStages method by name
                    body = _run_stage_op(state, msg)
                res.send({"node": node, "ok": True, "seconds": timer.elapsed, **body})
            except Exception:
                res.send(
                    {
                        "node": node,
                        "ok": False,
                        "error": traceback.format_exc(limit=20),
                        "seconds": 0.0,
                    }
                )
    finally:
        ring.close()
        state.close()
        cmd.close()
        res.close()
