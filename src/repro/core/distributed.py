"""Distributed CLUGP (Section III-C, last paragraph).

    "Of the system, each distributed node accesses partial streaming edges
    and performs the three steps, clustering, game processing, and
    transformation, locally.  After the three steps, the final graph
    partitioning result is obtained by combining the partial partitioning
    results of distributed nodes."

This module simulates that deployment: the edge stream is sharded across
``num_nodes`` ingest nodes (contiguous ranges — each crawler node ingests
a contiguous part of the crawl), and the partial results are combined by
a two-round cluster merge:

**Round 1.**  Nodes run pass 1 and a *local* game, then ship a
:class:`~repro.core.partitioner.ClusterSummary` — per-cluster volumes,
the local equilibrium, and the ``(vertex, cluster, degree)`` triples of
their shard-boundary vertices.  No edge is in it.  The coordinator lays
the node cluster tables end to end into one global id space, resolves
each boundary vertex to one global cluster (highest local degree wins),
and broadcasts that resolution.
**Round 2.**  Each node labels *its own* edges with global cluster ids
and ships them aggregated — a
:class:`~repro.core.partitioner.GraphContribution`, every shard edge
counted exactly once.  The coordinator unions the contributions in one
barrier :meth:`~repro.core.cluster_graph.ClusterGraph.merge`, runs the
game **once** on the merged global cluster graph — warm-started from the
union of local equilibria, i.e. global game refinement — and broadcasts
the cluster->partition map.  Each node then replays pass 3 locally under
the global decision and per-node load quotas that keep the global
balance cap.  Nobody — no node and not the coordinator — ever
materializes another shard's edges; the sync cost is the measured
summary/contribution/broadcast wire bytes and the coordinator's
merge+game wall.

Concatenating per-shard pipelines that exchange nothing instead places a
vertex seen by several shards inconsistently: the replication factor
inflates with ``num_nodes`` and balance holds τ only per shard.  The
tests keep that concatenation as the quality baseline the merge must
beat (DESIGN.md §6).

With a single node the protocol degenerates exactly to the
single-machine pipeline: no boundary vertices, an identity relabel, and a
warm-started refinement game that proposes zero moves — the assignment is
bit-identical (see ``tests/test_core_distributed.py``).

Node stages execute on ``backend="thread"`` (an in-process thread pool)
or ``backend="persistent"`` (worker processes from
:mod:`repro.distributed`, fed and read over shared memory — the one
process transport, and the oracle for real crashes, hangs and corrupt
payloads; bit-identical to ``thread``).  The protocol itself is written
once (:func:`_run_merged`) over a two-method stage runner; a backend is
only a transport.  :class:`DistributedResult` reports measured
per-stage walls (shard/merge/game/transform critical path) plus wire
bytes via ``to_dict()`` / ``summary()``.
"""

from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .._util import StageTimes, Timer, check_positive_int, human_bytes
from ..config import ClugpConfig
from ..graph.stream import EdgeStream
from ..reliability.faults import FaultInjector
from ..reliability.retry import RetryPolicy, RetryStats, run_reliable
from ..partitioners.base import EdgePartitioner, PartitionAssignment
from .cluster_graph import ClusterGraph
from .clustering import ClusteringResult
from .game import ClusterPartitioningGame, GameResult
from .partitioner import (
    ClugpPartitioner,
    ClusterSummary,
    GraphContribution,
    graph_contribution,
)
from .transform import replay_transform_chunked

__all__ = [
    "NodeReport",
    "MergeReport",
    "DistributedResult",
    "DistributedClugpPartitioner",
    "NodeStages",
    "balance_quotas",
    "distributed_clugp",
]

_BACKENDS = ("thread", "persistent")


@dataclass(frozen=True)
class NodeReport:
    """Diagnostics of one ingest node's local pipeline run."""

    node: int
    num_edges: int
    num_clusters: int
    splits: int
    game_rounds: int
    seconds: float
    summary_bytes: int = 0
    boundary_vertices: int = 0
    transform_seconds: float = 0.0

    def to_dict(self) -> dict:
        """Flat JSON-ready view of this node's stats."""
        return {
            "node": self.node,
            "num_edges": self.num_edges,
            "num_clusters": self.num_clusters,
            "splits": self.splits,
            "game_rounds": self.game_rounds,
            "seconds": self.seconds,
            "summary_bytes": self.summary_bytes,
            "boundary_vertices": self.boundary_vertices,
            "transform_seconds": self.transform_seconds,
        }


@dataclass
class MergeReport:
    """Coordinator-side diagnostics of the merged protocol."""

    num_global_clusters: int
    num_boundary_vertices: int
    num_unresolved_edges: int  # edges with >= 1 boundary endpoint (counted node-side)
    max_cluster_volume: int  # largest global cluster (granularity check)
    merge_bytes: int  # summed node->coordinator payloads, round 1 + round 2
    broadcast_bytes: int  # each coordinator->node broadcast, one payload apiece
    quota_bytes: int  # balance quota exchange (loads up + quotas down)
    game_rounds: int
    game_moves: int
    merge_seconds: float
    game_seconds: float

    def total_wire_bytes(self) -> int:
        """Everything the sync protocol moved, in one number — the
        single definition every table/summary prints."""
        return self.merge_bytes + self.broadcast_bytes + self.quota_bytes

    def to_dict(self) -> dict:
        """Flat JSON-ready view of the merge report."""
        return {
            "num_global_clusters": self.num_global_clusters,
            "num_boundary_vertices": self.num_boundary_vertices,
            "num_unresolved_edges": self.num_unresolved_edges,
            "max_cluster_volume": self.max_cluster_volume,
            "merge_bytes": self.merge_bytes,
            "broadcast_bytes": self.broadcast_bytes,
            "quota_bytes": self.quota_bytes,
            "total_wire_bytes": self.total_wire_bytes(),
            "game_rounds": self.game_rounds,
            "game_moves": self.game_moves,
            "merge_seconds": self.merge_seconds,
            "game_seconds": self.game_seconds,
        }


@dataclass
class DistributedResult:
    """Assignment plus per-node and merge-stage diagnostics."""

    assignment: PartitionAssignment
    merge: MergeReport
    nodes: list[NodeReport] = field(default_factory=list)
    backend: str = "thread"

    def to_dict(self) -> dict:
        """Machine-readable run profile (benchmark JSON, CLI --json)."""
        times = self.assignment.stage_times
        return {
            "backend": self.backend,
            "num_nodes": len(self.nodes),
            "num_partitions": self.assignment.num_partitions,
            "num_edges": self.assignment.stream.num_edges,
            "replication_factor": self.assignment.replication_factor(),
            "relative_balance": self.assignment.relative_balance(),
            "stage_seconds": dict(times.stages),
            "stage_walls": dict(times.walls),
            "stage_overlaps": dict(times.overlaps),
            "reliability": dict(times.counters),
            "total_seconds": times.total,
            "wall_seconds": self.assignment.wall_time(),
            "merge": self.merge.to_dict(),
            "nodes": [n.to_dict() for n in self.nodes],
        }

    def summary(self) -> str:
        """One human-readable paragraph: quality, walls, sync cost."""
        a = self.assignment
        m = self.merge
        walls = a.stage_times.walls
        lines = [
            f"distributed CLUGP [{self.backend}]: "
            f"{len(self.nodes)} nodes, k={a.num_partitions}, |E|={a.stream.num_edges}",
            f"  RF={a.replication_factor():.4f} balance={a.relative_balance():.4f} "
            f"wall={a.wall_time():.3f}s work={a.stage_times.total:.3f}s",
            f"  stages: shard={walls.get('shard', 0.0):.3f}s "
            f"merge={m.merge_seconds:.3f}s game={m.game_seconds:.3f}s "
            f"transform={walls.get('transform', 0.0):.3f}s (walls)",
            f"  merge: {m.num_global_clusters} global clusters, "
            f"{m.num_boundary_vertices} boundary vertices touched by "
            f"{m.num_unresolved_edges} edges, "
            f"wire={human_bytes(m.merge_bytes)} up + "
            f"{human_bytes(m.broadcast_bytes)} down, "
            f"refinement rounds={m.game_rounds} moves={m.game_moves}",
        ]
        overlaps = a.stage_times.overlaps
        busy = sum(v for name, v in overlaps.items() if name.endswith("_busy"))
        if busy:
            idle = sum(v for name, v in overlaps.items() if name.endswith("_idle"))
            lines.append(f"  pipeline: resident workers busy={busy:.3f}s idle={idle:.3f}s")
        counters = a.stage_times.counters
        if counters.get("retries"):
            detail = ", ".join(
                f"{name}={count}" for name, count in sorted(counters.items())
            )
            lines.append(f"  reliability: {detail}")
        return "\n".join(lines)


def _shard_ranges(num_edges: int, num_nodes: int) -> list[tuple[int, int]]:
    """Contiguous near-equal shard boundaries."""
    base, extra = divmod(num_edges, num_nodes)
    ranges = []
    start = 0
    for node in range(num_nodes):
        stop = start + base + (1 if node < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _boundary_mask(stream: EdgeStream, ranges: list[tuple[int, int]]) -> np.ndarray:
    """Vertices that appear in two or more shards.

    The coordinator owns the shard boundaries, so it derives this without
    reading edge *content* beyond per-shard seen-sets (in a real
    deployment each node ships its seen-vertex set once; the mask is the
    ">= 2 shards" reduction broadcast back).

    One reused seen-set and two running reductions ("seen in any shard
    so far", "seen in two"): per shard the only work is the two scatters
    that mark its endpoints — no per-shard allocation, no integer counts.
    """
    n = stream.num_vertices
    seen = np.zeros(n, dtype=bool)
    seen_any = np.zeros(n, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    for start, stop in ranges:
        seen.fill(False)
        seen[stream.src[start:stop]] = True
        seen[stream.dst[start:stop]] = True
        mask |= seen & seen_any
        seen_any |= seen
    return mask


# --------------------------------------------------------------------- #
# node side: one stage = one method, whichever backend hosts the node
# --------------------------------------------------------------------- #


class NodeStages:
    """One ingest node's half of the protocol.

    A stage is a method ``(shard, msg) -> payload``; what a later stage
    needs from an earlier one is an attribute.  A resident worker process
    keeps one instance alive next to its shard; the thread backend keeps
    it coordinator-side and hands it to whichever pool thread runs the
    next stage.  Either way the same code runs, so the backends cannot
    drift.

    Stages only ever *rebind* attributes (no array is mutated in place),
    so a shallow copy is an independent node — the pool threads run on
    one, which keeps a timed-out straggler thread from racing its own
    retry.
    """

    #: stages whose effect a later stage reads — what a crash replay re-runs
    RESIDENT = ("summary", "attribute", "probe")

    def __init__(self, node: int) -> None:
        self.node = node
        self.config: ClugpConfig | None = None
        self.chunk_size: int | None = None
        self.clustering: ClusteringResult | None = None
        self.global_cluster_of: np.ndarray | None = None
        self.vertex_partition: np.ndarray | None = None

    def summary(self, shard: EdgeStream, msg: dict) -> ClusterSummary:
        """Round 1: pass 1 + local game; ships cluster-level facts only."""
        partitioner = ClugpPartitioner(
            msg["num_partitions"], seed=msg["seed"] + self.node, config=msg["config"]
        )
        summary = partitioner.cluster_summary(
            shard, boundary_mask=msg["boundary"], chunk_size=msg["chunk_size"],
            node=self.node,
        )
        self.config = msg["config"]
        self.chunk_size = msg["chunk_size"]
        self.clustering = partitioner.last_clustering
        self.global_cluster_of = self.vertex_partition = None
        return summary

    def attribute(self, shard: EdgeStream, msg: dict) -> GraphContribution:
        """Round 2: the shard's edges aggregated under global cluster ids."""
        if self.clustering is None:
            raise RuntimeError("attribute before summary: no resident clustering")
        contribution, self.global_cluster_of = graph_contribution(
            shard, self.clustering, msg["offset"], msg["num_global_clusters"],
            msg["boundary_vertices"], msg["boundary_global_cluster"], node=self.node,
        )
        self.vertex_partition = None
        return contribution

    def probe(self, shard: EdgeStream, msg: dict) -> np.ndarray:
        """Uncapped tentative pass 3: this shard's per-partition load.

        Builds the node's vertex -> partition view of the broadcast
        decision (one gather through the round-2 global-cluster map) and
        keeps it for :meth:`commit`.  Without a binding cap the
        Algorithm 1 rule table is load-free, so the probe is one
        vectorized pass; ``k`` integers go back for the quota exchange.
        """
        if self.global_cluster_of is None:
            raise RuntimeError("transform before summary: no resident clustering")
        known = self.global_cluster_of >= 0
        vp = np.full(known.size, -1, dtype=np.int64)
        vp[known] = msg["cluster_partition"][self.global_cluster_of[known]]
        self.vertex_partition = vp
        k = self.config.num_partitions
        out = self._replay(
            shard, load_caps=np.full(k, max(1, shard.num_edges), dtype=np.int64)
        )
        return np.bincount(out, minlength=k)

    def commit(self, shard: EdgeStream, msg: dict) -> np.ndarray:
        """Final pass-3 replay under the coordinator's per-partition quotas."""
        if self.vertex_partition is None:
            raise RuntimeError("commit before probe: no resident vertex partition")
        return self._replay(
            shard, imbalance_factor=self.config.imbalance_factor,
            load_caps=msg["load_caps"],
        )

    def _replay(self, shard: EdgeStream, **caps) -> np.ndarray:
        out, _ = replay_transform_chunked(
            shard,
            self.clustering,
            self.vertex_partition,
            self.config.num_partitions,
            chunk_size=self.chunk_size,
            **caps,
        )
        return out


def _pooled_stage_worker(task) -> tuple[object, NodeStages, float]:
    """One stage of one node on a pool thread, on its own copy of the node."""
    stages, op, shard, msg = task
    stages = copy.copy(stages)
    with Timer() as timer:
        payload = getattr(stages, op)(shard, msg)
    return payload, stages, timer.elapsed


class _PooledStages:
    """Stage runner of the thread backend.

    The runner is the only thing the protocol driver knows of a backend:
    ``run(stage, op, msgs, validate)`` executes ``NodeStages.<op>`` once
    per node and returns ``(payload, node_seconds)`` in node order;
    ``finish()`` lands whatever the transport itself measured in
    ``times``, the call's :class:`~repro._util.StageTimes`.  Here node
    state and shards stay in the coordinator's memory, shared with the
    pool threads; the persistent runner (:mod:`repro.distributed.
    pipeline`) keeps both resident in worker processes instead.

    All execution routes through :func:`~repro.reliability.retry.
    run_reliable`: failed, timed-out, or quarantined tasks are resubmitted
    per ``policy`` and the retry cost lands in ``times``'s counters
    (``<stage>_retries`` etc.).
    """

    def __init__(self, stream, ranges, policy, inject):
        self.times = StageTimes()
        self.shards = [
            EdgeStream(stream.src[start:stop], stream.dst[start:stop], stream.num_vertices)
            for start, stop in ranges
        ]
        self.nodes = [NodeStages(node) for node in range(len(ranges))]
        self.policy = policy
        self.inject = inject

    def run(self, stage: str, op: str, msgs: list[dict], validate=None):
        tasks = [
            (self.nodes[node], op, self.shards[node], msg)
            for node, msg in enumerate(msgs)
        ]
        stats = RetryStats()
        results = run_reliable(
            tasks,
            _pooled_stage_worker,
            policy=self.policy,
            stage=stage,
            validate=validate and (lambda item, index: validate(item[0], index)),
            inject=self.inject,
            stats=stats,
        )
        stats.report(stage, self.times)
        self.nodes = [item[1] for item in results]
        return [(item[0], item[2]) for item in results]

    def finish(self) -> None:
        """Nothing beyond the node seconds the driver already recorded."""


def balance_quotas(node_loads: np.ndarray, cap: int) -> np.ndarray:
    """Split the global per-partition cap into per-node quotas.

    ``node_loads[i, p]`` is node ``i``'s tentative (uncapped) load; the
    returned ``quotas[i, p]`` satisfy, deterministically:

    * every column sums exactly to ``cap`` — per-node enforcement bounds
      the global partition load by ``L_max``, so relative balance still
      strictly conforms to tau;
    * every row sums to at least the node's edge count — each node can
      always place its whole shard (``sum(cap*k) >= |E|`` guarantees the
      pooled headroom covers the pooled deficit);
    * with one node the quota degenerates to the uniform global cap,
      which keeps merged ``num_nodes=1`` bit-identical to single-machine.

    Overfull partitions are scaled down proportionally (largest-remainder
    rounding); each node's resulting deficit is then covered from the
    underfull partitions' headroom, and leftover headroom is shared
    evenly.
    """
    num_nodes, k = node_loads.shape
    totals = node_loads.sum(axis=0)
    quotas = np.zeros((num_nodes, k), dtype=np.int64)
    over = totals > cap
    for p in np.flatnonzero(over).tolist():
        total = int(totals[p])
        scaled = node_loads[:, p] * cap // total
        remainder = int(cap - scaled.sum())
        if remainder:
            fractions = node_loads[:, p] * cap - scaled * total
            give = np.argsort(-fractions, kind="stable")[:remainder]
            scaled[give] += 1
        quotas[:, p] = scaled
    under = ~over
    quotas[:, under] = node_loads[:, under]
    headroom = np.where(under, cap - totals, 0).astype(np.int64)
    deficits = (node_loads - quotas).sum(axis=1)
    for i in range(num_nodes):
        need = int(deficits[i])
        if need <= 0:
            continue
        for p in np.flatnonzero(headroom > 0).tolist():
            take = min(int(headroom[p]), need)
            quotas[i, p] += take
            headroom[p] -= take
            need -= take
            if need == 0:
                break
    for p in np.flatnonzero(headroom > 0).tolist():
        share, extra = divmod(int(headroom[p]), num_nodes)
        quotas[:, p] += share
        quotas[:extra, p] += 1
    return quotas


# --------------------------------------------------------------------- #
# coordinator
# --------------------------------------------------------------------- #


@dataclass
class _Resolution:
    """What the coordinator fixes between the two rounds: one global
    cluster id space and one cluster per boundary vertex."""

    offsets: np.ndarray  # node -> first global cluster id of its range
    num_global_clusters: int
    boundary_vertices: np.ndarray  # sorted unique boundary vertex ids
    boundary_global_cluster: np.ndarray  # their resolved global cluster


def _resolve_boundaries(summaries: list[ClusterSummary]) -> _Resolution:
    """Round 1 -> round 2: assign global ids and resolve boundary vertices.

    Global cluster ids are the disjoint union of the per-node compact
    ids (node ``i``'s cluster ``c`` becomes ``offsets[i] + c`` — a
    bijection onto ``0..M-1``).  Each boundary vertex is resolved to the
    local cluster where it has the highest degree (ties: lowest node id —
    nodes are visited in order and only a strictly higher degree takes a
    vertex over).  Every node then labels its own edges through this
    resolution, which makes the merged graph *exactly* equal to
    ``build_cluster_graph(full_stream, global_clustering)`` — see
    DESIGN.md §6 for the argument and ``tests/test_distributed_merge.py``
    for the oracle check.
    """
    counts = np.asarray([s.num_clusters for s in summaries], dtype=np.int64)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    num_vertices = summaries[0].num_vertices
    best_degree = np.full(num_vertices, -1, dtype=np.int64)
    cluster_of = np.full(num_vertices, -1, dtype=np.int64)
    for i, s in enumerate(summaries):
        wins = s.boundary_degrees > best_degree[s.boundary_vertices]
        vertices = s.boundary_vertices[wins]
        best_degree[vertices] = s.boundary_degrees[wins]
        cluster_of[vertices] = s.boundary_clusters[wins] + offsets[i]
    boundary_vertices = np.flatnonzero(cluster_of >= 0)
    return _Resolution(
        offsets=offsets[:-1],
        num_global_clusters=int(offsets[-1]),
        boundary_vertices=boundary_vertices,
        boundary_global_cluster=cluster_of[boundary_vertices],
    )


def _global_game(
    merged: ClusterGraph,
    config: ClugpConfig,
    seed: int,
    warm_start: np.ndarray,
) -> GameResult:
    """The coordinator's single global pass 2: refinement from the union
    of local equilibria.

    Distributed nodes always play the game (``ClugpPartitioner`` pins
    ``use_game=True``), so the coordinator does too.
    """
    game_config = config.game if config.game.seed == seed else config.game.with_(seed=seed)
    return ClusterPartitioningGame(
        merged, config.num_partitions, game_config, initial_assignment=warm_start
    ).run()


# --------------------------------------------------------------------- #
# driver
# --------------------------------------------------------------------- #


def _check_backend(backend: str) -> None:
    """Refuse an unknown backend, naming the allowed values."""
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")


def distributed_clugp(
    stream: EdgeStream,
    num_partitions: int,
    num_nodes: int,
    config: ClugpConfig | None = None,
    seed: int = 0,
    chunk_size: int | None = None,
    merge_mode: str = "merged",
    backend: str = "thread",
    runtime=None,
) -> DistributedResult:
    """Run the Section III-C distributed deployment of CLUGP.

    Parameters
    ----------
    stream:
        The global edge stream (crawl order).
    num_partitions:
        ``k`` — shared by every node; partial results target the same
        partition space.
    num_nodes:
        Number of ingest nodes, each processing a contiguous shard.
    config:
        Per-node pipeline configuration (``V_max`` resolves against each
        shard's edge count, as a real node would).
    chunk_size:
        Each node reads its shard as chunks of at most ``chunk_size``
        edges in every pass (default: the partitioner's chunk size) —
        the node-local equivalent of a crawler handing the partitioner
        one fetch buffer at a time.
    merge_mode:
        Only ``"merged"`` — the one protocol, the module docstring's two
        rounds; any other value is refused.
    backend:
        ``"thread"`` — an in-process thread pool per stage — or
        ``"persistent"``: worker processes fed and read over shared
        memory (:mod:`repro.distributed`).  The protocol is the same
        function for both; only the stage runner differs.
    runtime:
        Optional resident :class:`~repro.distributed.runtime.
        PersistentRuntime` to run on (``backend="persistent"`` only); by
        default an ephemeral pool is spawned and torn down for the call.
        Its ``num_workers`` must equal ``num_nodes``.
    """
    check_positive_int(num_nodes, "num_nodes")
    if chunk_size is not None:
        check_positive_int(chunk_size, "chunk_size")
    if num_nodes > max(1, stream.num_edges):
        raise ValueError(
            f"num_nodes={num_nodes} exceeds the number of edges {stream.num_edges}"
        )
    if merge_mode != "merged":
        raise ValueError(f"merge_mode must be 'merged', got {merge_mode!r}")
    _check_backend(backend)
    config = config or ClugpConfig(num_partitions=num_partitions)
    if config.num_partitions != num_partitions:
        config = config.with_(num_partitions=num_partitions)
    if chunk_size is None:
        chunk_size = ClugpPartitioner.default_chunk_size
    ranges = _shard_ranges(stream.num_edges, num_nodes)
    rel = config.reliability
    policy = RetryPolicy(
        max_retries=rel.max_retries,
        task_timeout=rel.task_timeout,
        backoff_base=rel.backoff_base,
        backoff_factor=rel.backoff_factor,
        backoff_max=rel.backoff_max,
    )
    inject = FaultInjector.from_spec(rel.inject_faults)

    if backend == "persistent":
        from ..distributed.pipeline import resident_stages

        runner = resident_stages(stream, ranges, runtime, policy, inject)
    elif runtime is not None:
        raise ValueError("runtime= requires backend='persistent'")
    else:
        runner = contextlib.nullcontext(_PooledStages(stream, ranges, policy, inject))
    with runner as stages:
        return _run_merged(stream, config, seed, chunk_size, ranges, stages, backend)


def _run_merged(
    stream, config, seed, chunk_size, ranges, stages, backend,
) -> DistributedResult:
    """The two-round merge protocol — the one copy every backend runs.

    round 1 (nodes) -> resolve (coordinator) -> round 2 (nodes) -> barrier
    merge + one global game (coordinator) -> probe (nodes) -> quotas
    (coordinator) -> commit (nodes).  An edge never leaves the node that
    ingested it: up go cluster-level summaries and aggregated graphs,
    down go the boundary resolution, the cluster -> partition map and one
    quota row per node.
    """
    k = config.num_partitions
    num_nodes = len(ranges)
    times = stages.times
    validate = config.reliability.validate_summaries
    boundary = _boundary_mask(stream, ranges)

    # round 1 (nodes): pass 1 + local game -> cluster-level summary
    msg = {
        "num_partitions": k, "seed": seed, "config": config,
        "boundary": boundary, "chunk_size": chunk_size,
    }
    round1 = stages.run(
        "shard", "summary", [msg] * num_nodes,
        validate=(lambda summary, node: summary.validate()) if validate else None,
    )
    summaries = [payload for payload, _ in round1]

    # coordinator: one global id space, one cluster per boundary vertex
    with Timer() as t_resolve:
        resolution = _resolve_boundaries(summaries)
    num_global = resolution.num_global_clusters

    # round 2 (nodes): own edges, global labels -> aggregated contribution
    def check_contribution(contribution, node):
        if contribution.num_clusters != num_global:
            return (
                f"contribution spans {contribution.num_clusters} clusters, "
                f"the resolution has {num_global}"
            )
        return contribution.validate()

    round2 = stages.run(
        "attribute", "attribute",
        [
            {
                "offset": int(resolution.offsets[node]),
                "num_global_clusters": num_global,
                "boundary_vertices": resolution.boundary_vertices,
                "boundary_global_cluster": resolution.boundary_global_cluster,
            }
            for node in range(num_nodes)
        ],
        validate=check_contribution if validate else None,
    )
    contributions = [payload for payload, _ in round2]

    # coordinator: barrier merge of num_nodes small graphs, then one global
    # game warm-started from the union of the local equilibria
    with Timer() as t_merge:
        identity = np.arange(num_global, dtype=np.int64)
        merged_graph = ClusterGraph.merge(
            contributions, [identity] * num_nodes,
            num_clusters=num_global,
        )
        warm_start = np.concatenate([s.local_assignment for s in summaries])
    merge_seconds = t_resolve.elapsed + t_merge.elapsed
    with Timer() as t_game:
        game_result = _global_game(merged_graph, config, seed, warm_start)
    cluster_partition = game_result.assignment

    # probe (nodes): uncapped tentative pass 3 -> per-partition loads
    probe = stages.run(
        "probe", "probe", [{"cluster_partition": cluster_partition}] * num_nodes
    )
    node_loads = np.stack([payload for payload, _ in probe])

    # coordinator: balance quota exchange — per-node caps that column-sum
    # to the global L_max, so only the true global excess spills
    global_cap = max(1, math.ceil(config.imbalance_factor * stream.num_edges / k))
    quotas = balance_quotas(node_loads, global_cap)

    # commit (nodes): pass-3 replay under the quotas
    commit = stages.run(
        "commit", "commit", [{"load_caps": quotas[node]} for node in range(num_nodes)]
    )

    edge_partition = np.empty(stream.num_edges, dtype=np.int64)
    reports: list[NodeReport] = []
    for node, s in enumerate(summaries):
        start, stop = ranges[node]
        edge_partition[start:stop] = commit[node][0]
        t_shard = round1[node][1] + round2[node][1]
        t_transform = probe[node][1] + commit[node][1]
        reports.append(
            NodeReport(
                node=node,
                num_edges=s.num_edges,
                num_clusters=s.num_clusters,
                splits=s.splits,
                game_rounds=s.local_game_rounds,
                seconds=t_shard + t_transform,
                summary_bytes=s.wire_bytes() + contributions[node].wire_bytes(),
                boundary_vertices=int(s.boundary_vertices.size),
                transform_seconds=t_transform,
            )
        )

    def slowest(*rounds) -> float:
        """Wall of consecutive fan-outs: each waits for its slowest node."""
        return sum(max(seconds for _, seconds in results) for results in rounds)

    times.add("shard", sum(seconds for _, seconds in round1 + round2))
    times.add("merge", merge_seconds)
    times.add("game", t_game.elapsed)
    times.add("transform", sum(r.transform_seconds for r in reports))
    shard_wall = slowest(round1, round2)
    transform_wall = slowest(probe, commit)
    times.add_wall("shard", shard_wall)
    times.add_wall("transform", transform_wall)
    # the merged deployment is a fork-join pipeline: concurrent node
    # stages, serial coordinator steps between them
    times.add_wall(
        "critical_path",
        shard_wall + merge_seconds + t_game.elapsed + transform_wall,
    )
    stages.finish()
    assignment = PartitionAssignment(stream, edge_partition, k, times)
    # the shipped per-cluster volumes give the coordinator a granularity
    # diagnostic over the merged id space: the largest global cluster's
    # pass-1 volume (relabels are injective, so volumes concatenate)
    max_volume = max(
        (int(s.volume.max()) for s in summaries if s.volume.size), default=0
    )
    merge_report = MergeReport(
        num_global_clusters=num_global,
        num_boundary_vertices=int(resolution.boundary_vertices.size),
        num_unresolved_edges=sum(s.num_boundary_edges for s in summaries),
        max_cluster_volume=max_volume,
        merge_bytes=sum(r.summary_bytes for r in reports),
        broadcast_bytes=int(
            boundary.nbytes
            + resolution.boundary_vertices.nbytes
            + resolution.boundary_global_cluster.nbytes
            + cluster_partition.nbytes
        ),
        quota_bytes=int(node_loads.nbytes + quotas.nbytes),
        game_rounds=game_result.rounds,
        game_moves=game_result.moves,
        merge_seconds=merge_seconds,
        game_seconds=t_game.elapsed,
    )
    return DistributedResult(
        assignment=assignment, merge=merge_report, nodes=reports, backend=backend
    )


class DistributedClugpPartitioner(EdgePartitioner):
    """Distributed CLUGP behind the standard partitioner interface.

    Parameters
    ----------
    num_nodes:
        Ingest nodes (default 4).
    chunk_size:
        This instance's :attr:`default_chunk_size`: what each node reads
        its shard in when :meth:`partition` is given none.
    backend:
        Node executor: ``"thread"`` or ``"persistent"``.
        The persistent backend keeps a resident
        :class:`~repro.distributed.runtime.PersistentRuntime` across
        ``partition()`` calls — spawn once, reuse forever; release it
        with :meth:`close` (also a context manager).
    """

    name = "clugp-dist"
    preferred_order = "natural"

    def __init__(
        self,
        num_partitions: int,
        seed: int = 0,
        num_nodes: int = 4,
        config: ClugpConfig | None = None,
        chunk_size: int | None = None,
        backend: str = "thread",
    ) -> None:
        super().__init__(num_partitions, seed)
        self.num_nodes = check_positive_int(num_nodes, "num_nodes")
        self.config = config
        if chunk_size is not None:
            self.default_chunk_size = check_positive_int(chunk_size, "chunk_size")
        _check_backend(backend)
        self.backend = backend
        self.last_result: DistributedResult | None = None
        self._runtime = None

    def runtime_for(self, num_nodes: int):
        """The resident worker pool, (re)created to match ``num_nodes``.

        Only meaningful for ``backend="persistent"``; the pool survives
        across ``partition()`` calls (the whole point of the backend) and
        is resized — close + respawn — only if the effective node count
        changes (e.g. a stream smaller than ``num_nodes``).
        """
        if self.backend != "persistent":
            return None
        if self._runtime is not None and self._runtime.num_workers != num_nodes:
            self._runtime.close()
            self._runtime = None
        if self._runtime is None:
            from ..distributed.runtime import PersistentRuntime

            self._runtime = PersistentRuntime(num_nodes)
        return self._runtime

    def close(self) -> None:
        """Shut down the resident worker pool (no-op for ``thread``)."""
        if self._runtime is not None:
            self._runtime.close()
            self._runtime = None

    def __enter__(self) -> "DistributedClugpPartitioner":
        """Context-manager entry."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: release resident workers."""
        self.close()

    def _run(
        self, stream: EdgeStream, chunk_size: int, out: np.ndarray, times: StageTimes
    ) -> None:
        """Hand the stream whole to :func:`distributed_clugp` — its nodes
        make the passes, ``chunk_size`` edges at a time — and keep the
        call's diagnostics (``last_result``) and every ledger of its
        :class:`~repro._util.StageTimes`."""
        effective_nodes = min(self.num_nodes, max(1, stream.num_edges))
        result = distributed_clugp(
            stream,
            self.num_partitions,
            num_nodes=effective_nodes,
            config=self.config,
            seed=self.seed,
            chunk_size=chunk_size,
            backend=self.backend,
            runtime=self.runtime_for(effective_nodes),
        )
        self.last_result = result
        out[:] = result.assignment.edge_partition
        for ledger in ("stages", "walls", "counters", "overlaps"):
            getattr(times, ledger).update(getattr(result.assignment.stage_times, ledger))

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        """Rough per-node state footprint for the memory comparisons."""
        # per-node vertex tables over its shard (pass 1's two, pass 3's
        # replica summary); upper-bounded by the single-node footprint
        # times the node count in the worst case of fully-overlapping shards
        return 3 * stream.num_vertices * 8
