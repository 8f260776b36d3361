"""The long-lived incremental partition maintainer (``clugp serve``).

The batch pipeline answers "partition this graph"; a serving system asks
the harder question "keep this graph partitioned while it grows".  The
:class:`PartitionService` holds the three CLUGP passes warm across an
unbounded sequence of edge batches:

* **pass 1 never restarts** — one :class:`~repro.core.clustering.
  ClusteringState` ingests every batch and is read in place through
  :meth:`~repro.core.clustering.ClusteringState.live` (views of the
  live tables; the copying :meth:`~repro.core.clustering.
  ClusteringState.snapshot` is the first batch's and the restore path's),
  so the clustering is always exactly what the batch pipeline would
  have produced on the concatenated stream;
* **pass 2 plays the whole game, warm-started** — every cluster plays,
  starting from the previous batch's equilibrium (carried across batches
  by raw-cluster-id stability; a newborn cluster starts where its
  highest-degree served member is), so each batch ends at a full Nash
  equilibrium of its cluster graph; a cluster the batch left settled is
  evaluated once, then skipped by the game kernel's epoch rule;
* **pass 3 applies deltas** — the refreshed ideal map is diffed against
  the served map into a bounded :class:`~repro.service.plan.
  MigrationPlan`; only edges incident to moved vertices plus the new
  batch re-stream through a :class:`~repro.core.transform.TransformState`
  seeded with the retained per-partition loads (``initial_loads``), the
  replica summaries of the batches before (so a spilled edge goes where
  its endpoints already are) and the uniform cap ``L_max`` of everything
  served so far (what the PR-5 quota exchange,
  :func:`~repro.core.distributed.balance_quotas`, hands a single node),
  so churn is bounded by construction and the hard balance cap keeps
  holding.

What a batch costs is what it touches: the cluster graph is kept as a
raw-id delta layer (:class:`~repro.core.cluster_graph.ClusterGraphDelta`)
moved forward by the batch's own edges and the old edges of endpoints
that changed cluster, and an :class:`~repro.service.index.EndpointIndex`
finds those edges — and the ones a migration re-routes — without
scanning the accumulated stream (DESIGN.md §7.6).

The first batch takes the exact batch-pipeline path (no warm start, no
migration diff), so a service fed the whole stream as one
batch is **bit-identical** to :meth:`~repro.core.partitioner.
ClugpPartitioner.partition` — the anchor invariant of
``tests/test_service.py``.  DESIGN.md §7 states all the invariants and
the measured drift/churn tradeoff.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time

import numpy as np

from .._util import check_positive_int, grow_buffer, sorted_unique
from ..config import ClugpConfig
from ..core.clustering import ClusteringState
from ..core.cluster_graph import ClusterGraphDelta, build_cluster_graph
from ..core.game import ClusterPartitioningGame
from ..core.partitioner import ClugpPartitioner
from ..core.transform import TransformState
from ..graph.stream import EdgeStream
from ..partitioners.base import PartitionAssignment
from ..reliability.checkpoint import BatchJournal, CheckpointError, CheckpointManager
from .index import EndpointIndex
from .plan import BatchStats, MigrationPlan, plan_migrations

__all__ = ["PartitionService"]

#: checkpoint payload format version (bumped on incompatible layout changes)
_CKPT_FORMAT = 2


def _jsonable(obj):
    """Recursively convert numpy scalars so ``meta`` survives ``json.dumps``."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    return obj


class _PhaseClock:
    """Books the time since the previous lap to a named batch phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] = self.seconds.get(phase, 0.0) + now - self._last
        self._last = now


def _labels_before(
    vertices: np.ndarray, labels: np.ndarray, changed: np.ndarray, before: np.ndarray
) -> np.ndarray:
    """``labels`` of ``vertices`` with those in ``changed`` (ascending) put
    back to their ``before`` value."""
    if changed.size == 0:
        return labels
    pos = np.minimum(np.searchsorted(changed, vertices), changed.size - 1)
    return np.where(changed[pos] == vertices, before[pos], labels)


class PartitionService:
    """Maintain a CLUGP partition over a continuously growing edge stream.

    Parameters
    ----------
    num_vertices:
        Size of the vertex-id space.  Fixed for the service lifetime (the
        paper's streams are crawls over a known id space; growing ``|V|``
        online would need growable vertex tables — see docs/service.md).
    config:
        Pipeline configuration; ``config.num_partitions`` is ``k``.  The
        service always runs the sequential game, warm-started, and always
        uses the game (``use_game=False`` has no warm-startable
        equilibrium).
    migration_cap:
        Per-batch budget of served-vertex moves (``None`` = unbounded).
        Initial placements of new vertices never consume budget.
    expected_edges:
        Resolve ``V_max`` against this count (a positive int) instead of
        the first batch's size.  With neither this nor ``config.max_cluster_volume`` set,
        ``V_max`` locks to ``config.resolve_vmax(first batch size)`` —
        which is exactly what the batch pipeline uses when the whole
        stream arrives as one batch (the bit-identity anchor), but is a
        poor choice when the first batch is a sliver of the eventual
        stream; operators should pass an estimate.
    quality_every:
        Collect replication factor / balance every this many batches
        (they cost a full O(E) pass each; 1 = every batch).

    Usage::

        svc = PartitionService(n, config, migration_cap=64)
        for chunk in feed:                     # (m, 2) int64 arrays
            stats = svc.ingest(chunk)
        assignment = svc.assignment()          # full PartitionAssignment
    """

    def __init__(
        self,
        num_vertices: int,
        config: ClugpConfig | None = None,
        migration_cap: int | None = None,
        expected_edges: int | None = None,
        quality_every: int = 1,
        checkpoint_dir: str | None = None,
    ) -> None:
        self.config = config or ClugpConfig()
        self.num_vertices = int(num_vertices)
        self.k = self.config.num_partitions
        if migration_cap is not None and migration_cap < 0:
            raise ValueError(f"migration_cap must be >= 0 or None, got {migration_cap}")
        self.migration_cap = migration_cap
        self.expected_edges = (
            None if expected_edges is None
            else check_positive_int(expected_edges, "expected_edges")
        )
        if quality_every < 1:
            raise ValueError(f"quality_every must be >= 1, got {quality_every}")
        self.quality_every = int(quality_every)
        n = self.num_vertices
        self._state: ClusteringState | None = None  # created on first batch
        self._src = np.empty(0, dtype=np.int64)
        self._dst = np.empty(0, dtype=np.int64)
        self._edge_part = np.empty(0, dtype=np.int64)
        self._num_edges = 0
        self._vp = np.full(n, -1, dtype=np.int64)  # served vertex->partition
        self._raw_assign = np.full(0, -1, dtype=np.int64)  # raw cluster->partition
        self._loads = np.zeros(self.k, dtype=np.int64)
        # pass 3's replica summaries, carried from batch to batch so a
        # spilled edge sees the replicas earlier batches placed
        self._replicas = np.zeros(n, dtype=np.uint64)
        # derived state, rebuilt from the log and the clustering on restore:
        # the cluster graph under raw labels, and vertex -> incident edges
        self._delta: ClusterGraphDelta | None = None
        self._index = EndpointIndex(n)
        self.batch_index = 0
        self.history: list[BatchStats] = []
        self.last_plan: MigrationPlan | None = None
        # -- durability (checkpoint + write-ahead journal); see
        #    docs/reliability.md and DESIGN.md §9
        self.checkpoint_dir = checkpoint_dir
        self._ckpt: CheckpointManager | None = None
        self._journal: BatchJournal | None = None
        self._durability_paused = False  # True while replaying the journal
        if checkpoint_dir is not None:
            self._ckpt = CheckpointManager(
                checkpoint_dir, keep=self.config.reliability.checkpoint_keep
            )
            self._journal = BatchJournal(
                os.path.join(checkpoint_dir, "journal.wal"),
                sync=self.config.reliability.journal_sync,
            )
            # anchor checkpoint: recovery always has a base to replay onto,
            # even if the process dies before the first cadence checkpoint
            self.checkpoint()

    # ------------------------------------------------------------------ #
    # read-side API
    # ------------------------------------------------------------------ #

    @property
    def num_edges(self) -> int:
        """Edges ingested so far (across all batches)."""
        return self._num_edges

    @property
    def vertex_partition(self) -> np.ndarray:
        """The served vertex->partition map (copy; ``-1`` = never seen)."""
        return self._vp.copy()

    @property
    def edge_partition(self) -> np.ndarray:
        """Partition id of every ingested edge, in arrival order (copy)."""
        return self._edge_part[: self._num_edges].copy()

    @property
    def loads(self) -> np.ndarray:
        """Current per-partition edge counts (copy)."""
        return self._loads.copy()

    def stream(self) -> EdgeStream:
        """The concatenated stream ingested so far (views, zero-copy)."""
        return EdgeStream(
            self._src[: self._num_edges],
            self._dst[: self._num_edges],
            self.num_vertices,
        )

    def assignment(self) -> PartitionAssignment:
        """The served state as a full :class:`PartitionAssignment`."""
        return PartitionAssignment(
            self.stream(), self._edge_part[: self._num_edges], self.k
        )

    def oracle_assignment(self) -> PartitionAssignment:
        """Run the from-scratch batch pipeline on everything ingested.

        The drift oracle: what a cold :class:`~repro.core.partitioner.
        ClugpPartitioner` (same config and ``V_max``) would produce if the
        stream arrived all at once.  O(E) work — benchmarking only.
        """
        cfg = self._locked_config()
        part = ClugpPartitioner(self.k, seed=cfg.game.seed, config=cfg)
        return part.partition(self.stream())

    def _locked_config(self) -> ClugpConfig:
        """The config with ``V_max`` pinned to the service's locked value."""
        if self._state is None:
            raise RuntimeError("no batch ingested yet")
        return self.config.with_(max_cluster_volume=self._state.max_volume)

    def summary(self) -> dict:
        """Aggregate service counters (CLI/bench reporting)."""
        secs = sum(s.seconds for s in self.history)
        phases: dict[str, float] = {}
        for stats in self.history:
            for phase, spent in stats.phase_seconds.items():
                phases[phase] = phases.get(phase, 0.0) + spent
        return {
            "batches": self.batch_index,
            "num_edges": self._num_edges,
            "num_vertices": self.num_vertices,
            "num_partitions": self.k,
            "migration_cap": self.migration_cap,
            "seconds": secs,
            "edges_per_second": self._num_edges / secs if secs > 0 else 0.0,
            "applied_moves": sum(s.applied_moves for s in self.history),
            "deferred_moves": sum(s.deferred_moves for s in self.history),
            "churn_edges": sum(s.churn_edges for s in self.history),
            "reassigned_edges": sum(s.reassigned_edges for s in self.history),
            "phase_seconds": phases,
        }

    # ------------------------------------------------------------------ #
    # durability: checkpoint / restore / write-ahead journal
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> str:
        """Write a checkpoint of the full service state now; returns its path.

        Also truncates the write-ahead journal — every journaled batch is
        contained in the checkpoint, so replaying it would double-count.
        Called automatically every ``config.reliability.checkpoint_every``
        batches when the service was built with a ``checkpoint_dir``.
        """
        if self._ckpt is None:
            raise RuntimeError("service was constructed without checkpoint_dir")
        m = self._num_edges
        arrays = {
            "src": self._src[:m],
            "dst": self._dst[:m],
            "edge_part": self._edge_part[:m],
            "vp": self._vp,
            "raw_assign": self._raw_assign,
            "loads": self._loads,
            "replicas": self._replicas,
        }
        state_meta = None
        if self._state is not None:
            state_arrays, state_meta = self._state.state_dict()
            arrays.update({f"state__{k}": a for k, a in state_arrays.items()})
        meta = _jsonable({
            "format": _CKPT_FORMAT,
            "num_vertices": self.num_vertices,
            "k": self.k,
            "migration_cap": self.migration_cap,
            "expected_edges": self.expected_edges,
            "quality_every": self.quality_every,
            "batch_index": self.batch_index,
            "num_edges": m,
            "config": self.config.to_dict(),
            "history": [s.to_dict() for s in self.history],
            "has_state": self._state is not None,
            "state_meta": state_meta,
        })
        path = self._ckpt.save(self.batch_index, arrays, meta)
        if self._journal is not None:
            self._journal.reset()
        return path

    def _maybe_checkpoint(self) -> None:
        """Cadence hook: checkpoint when the batch counter hits the period."""
        if self._ckpt is None or self._durability_paused:
            return
        if self.batch_index % self.config.reliability.checkpoint_every == 0:
            self.checkpoint()

    def _restore(self, arrays: dict, meta: dict) -> None:
        """Load checkpoint payload into this (freshly constructed) service."""
        m = int(meta["num_edges"])
        self._num_edges = m
        self._src = np.ascontiguousarray(arrays["src"], dtype=np.int64)
        self._dst = np.ascontiguousarray(arrays["dst"], dtype=np.int64)
        self._edge_part = np.ascontiguousarray(arrays["edge_part"], dtype=np.int64)
        self._vp = np.ascontiguousarray(arrays["vp"], dtype=np.int64)
        self._raw_assign = np.ascontiguousarray(arrays["raw_assign"], dtype=np.int64)
        self._loads = np.ascontiguousarray(arrays["loads"], dtype=np.int64)
        self._replicas = np.ascontiguousarray(arrays["replicas"], dtype=np.uint64)
        self.batch_index = int(meta["batch_index"])
        self.history = [BatchStats.from_dict(d) for d in meta["history"]]
        if meta["has_state"]:
            prefix = "state__"
            state_arrays = {
                key[len(prefix):]: a
                for key, a in arrays.items()
                if key.startswith(prefix)
            }
            self._state = ClusteringState.from_state(state_arrays, meta["state_meta"])
            stream = self.stream()
            _, self._delta = self._build_graph(stream, self._state.snapshot())
            self._index.extend(stream.src, stream.dst)

    @classmethod
    def resume(cls, checkpoint_dir: str) -> "PartitionService":
        """Rebuild a service from ``checkpoint_dir`` and replay its journal.

        Recovery protocol (DESIGN.md §9): load the newest checkpoint that
        verifies (corrupt files are skipped), restore every buffer and the
        live clustering state bit-for-bit, then re-ingest every journaled
        batch whose index is at or past the checkpoint's — the journal is
        written *ahead* of ingestion, so batches the dead process had
        acknowledged but not yet checkpointed are recovered, and batch
        indices make the replay idempotent.  A fresh checkpoint is written
        at the end, so a crash *during* resume just resumes again from the
        same inputs.  Raises :class:`CheckpointError` when no checkpoint
        in the directory verifies.
        """
        mgr = CheckpointManager(checkpoint_dir, keep=2)
        found = mgr.latest()
        if found is None:
            raise CheckpointError(f"no loadable checkpoint in {checkpoint_dir}")
        _, arrays, meta = found
        if meta.get("format") != _CKPT_FORMAT:
            raise CheckpointError(
                f"{checkpoint_dir}: unsupported service checkpoint format "
                f"{meta.get('format')!r}"
            )
        cfg = ClugpConfig.from_dict(meta["config"])
        svc = cls(
            int(meta["num_vertices"]),
            config=cfg,
            migration_cap=meta["migration_cap"],
            expected_edges=meta["expected_edges"],
            quality_every=int(meta["quality_every"]),
        )
        svc._restore(arrays, meta)
        # attach durability only after the restore: constructing with
        # checkpoint_dir would write an empty anchor checkpoint over the
        # directory we are recovering from
        mgr.keep = cfg.reliability.checkpoint_keep
        svc.checkpoint_dir = checkpoint_dir
        svc._ckpt = mgr
        svc._journal = BatchJournal(
            os.path.join(checkpoint_dir, "journal.wal"),
            sync=cfg.reliability.journal_sync,
        )
        records = svc._journal.replay()
        svc._durability_paused = True
        try:
            for batch, u, v in records:
                if batch >= svc.batch_index:
                    svc.ingest_pair(u, v)
        finally:
            svc._durability_paused = False
        svc.checkpoint()
        return svc

    def close(self) -> None:
        """Release the journal handle (idempotent)."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #

    def ingest(self, edges: np.ndarray) -> BatchStats:
        """Ingest one ``(m, 2)`` int64 edge batch; returns its stats."""
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
        return self.ingest_pair(edges[:, 0], edges[:, 1])

    def ingest_pair(self, u: np.ndarray, v: np.ndarray) -> BatchStats:
        """Ingest one batch given as endpoint column arrays.

        Runs the full maintenance cycle — warm pass 1, warm-started game,
        capped migration plan, delta pass 3 — and appends the resulting
        :class:`BatchStats` to :attr:`history`.
        """
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("endpoint arrays must be 1-D and equal length")
        m_batch = u.shape[0]
        if m_batch and (
            min(int(u.min()), int(v.min())) < 0
            or max(int(u.max()), int(v.max())) >= self.num_vertices
        ):
            raise ValueError("vertex ids out of range")
        # write-ahead: the batch hits the journal before any state mutates,
        # so a crash mid-maintenance replays it instead of losing it
        if self._journal is not None and not self._durability_paused:
            self._journal.append(self.batch_index, u, v)
        if m_batch == 0:
            stats = BatchStats(
                batch=self.batch_index, num_edges=0, total_edges=self._num_edges,
                seconds=0.0, clusters=0, frontier_clusters=0, game_rounds=0,
                game_moves=0, candidate_moves=0, applied_moves=0,
                deferred_moves=0, reassigned_edges=0, churn_edges=0,
            )
            self.batch_index += 1
            self.history.append(stats)
            self._maybe_checkpoint()
            return stats

        clock = _PhaseClock()
        stats = self._maintain(u, v, m_batch, clock)
        stats.seconds = sum(clock.seconds.values())
        if self.batch_index % self.quality_every == 0:
            a = self.assignment()
            stats.replication_factor = a.replication_factor()
            stats.relative_balance = a.relative_balance()
            clock.lap("quality")
        stats.phase_seconds = clock.seconds
        self.batch_index += 1
        self.history.append(stats)
        self._maybe_checkpoint()
        return stats

    @staticmethod
    def _build_graph(stream: EdgeStream, snap):
        """Cluster graph of ``stream`` from scratch, and the delta layer
        holding it — the first batch (where it *is* the batch pipeline's
        builder: anchor invariant I1) and checkpoint restore."""
        graph = build_cluster_graph(stream, snap)
        return graph, ClusterGraphDelta.from_graph(graph, snap.raw_ids)

    def _maintain(
        self, u: np.ndarray, v: np.ndarray, m_batch: int, clock: _PhaseClock
    ) -> BatchStats:
        """One maintenance cycle (the hot path timed by :meth:`ingest_pair`).

        Transactional: the batch is computed against the committed state
        and adopted in one step at the end; an exception anywhere leaves
        the service — pass-1 state included — as it was before the call.
        After the first batch nothing here re-reads the edges already
        served, bar the endpoint index's bounded tail scan and its
        amortized re-index (DESIGN.md §7.6).
        """
        cfg = self.config
        k = self.k
        n = self.num_vertices
        first = self._state is None
        state = self._state
        if first:
            vmax = cfg.resolve_vmax(self.expected_edges or m_batch)
            state = ClusteringState(
                n,
                vmax,
                enable_splitting=cfg.enable_splitting,
            )
        endpoints = sorted_unique(np.concatenate([u, v]))
        prev_raw = state.raw_clusters(endpoints)
        saved = state.savepoint(endpoints)
        # the log grows past _num_edges: invisible until the commit
        old_edges = self._num_edges
        total = old_edges + m_batch
        self._src = grow_buffer(self._src, old_edges, m_batch)
        self._dst = grow_buffer(self._dst, old_edges, m_batch)
        self._edge_part = grow_buffer(self._edge_part, old_edges, m_batch)
        self._src[old_edges:total] = u
        self._dst[old_edges:total] = v
        src = self._src[:old_edges]
        dst = self._dst[:old_edges]
        vp = self._vp
        vp_written = False
        clock.lap("endpoints")
        try:
            # -- pass 1 (warm)
            state.ingest_pair(u, v)
            clock.lap("pass1")
            # the warm state is read in place: views of the live tables,
            # no |V|-sized copy or renumbering (DESIGN.md §7.1)
            live = state.live()
            raw_ids = live.raw_ids
            m_clusters = live.num_clusters
            clock.lap("snapshot")

            # -- cluster graph: the batch's own edges under their labels,
            #    plus the old edges at an endpoint that changed raw cluster
            #    (only batch endpoints ever do) moved from the old label
            #    pair to the new one
            if first:
                graph, delta = self._build_graph(EdgeStream(u, v, n), state.snapshot())
            else:
                moved = (prev_raw >= 0) & (prev_raw != state.raw_clusters(endpoints))
                movers, was = endpoints[moved], prev_raw[moved]
                relabelled = self._index.incident(movers, src, dst)
                old_u, old_v = src[relabelled], dst[relabelled]
                now_u, now_v = state.raw_clusters(old_u), state.raw_clusters(old_v)
                delta = self._delta.updated(
                    np.concatenate([state.raw_clusters(u), now_u]),
                    np.concatenate([state.raw_clusters(v), now_v]),
                    _labels_before(old_u, now_u, movers, was),
                    _labels_before(old_v, now_v, movers, was),
                )
                graph = delta.freeze(raw_ids)
            clock.lap("cluster_graph")

            # -- pass 2 (the whole game, warm-started)
            init = None if first else self._warm_start(live, graph, endpoints)
            clock.lap("warm_start")
            result = ClusterPartitioningGame(graph, k, cfg.game, initial_assignment=init).run()
            clock.lap("game")

            # -- migration plan: diff served map against the refreshed ideal,
            #    over the seen vertices only (ascending, so the planner's
            #    tie-breaks by position are tie-breaks by vertex id)
            seen = np.flatnonzero(live.raw_of >= 0)
            # raw cluster -> partition, deliberately uninitialized: written
            # at the live ids only, and only they label a seen vertex
            raw_part = np.empty(state.num_raw, dtype=np.int64)
            raw_part[raw_ids] = result.assignment
            ideal = raw_part[live.raw_of[seen]]
            served = vp[seen]
            plan = plan_migrations(served, ideal, live.degree[seen], self.migration_cap)
            plan = dataclasses.replace(plan, vertices=seen[plan.vertices])
            placed = seen[served < 0]
            placed_to = ideal[served < 0]
            affected = self._index.incident(plan.vertices, src, dst)
            clock.lap("plan")

            # -- pass 3 (delta): re-route edges incident to moved vertices,
            #    then stream the new batch, against retained loads and the
            #    hard cap of everything served so far
            vp_written = True
            vp[placed] = placed_to
            vp[plan.vertices] = plan.targets
            old_parts = self._edge_part[affected]
            loads = self._loads - np.bincount(old_parts, minlength=k)
            cap = max(1, math.ceil(cfg.imbalance_factor * total / k))
            transform = TransformState(
                live, None, k,
                num_edges=int(affected.size) + m_batch,
                num_vertices=n,
                imbalance_factor=cfg.imbalance_factor,
                vertex_partition=vp,
                load_caps=np.full(k, cap, dtype=np.int64),
                initial_loads=loads,
            )
            transform.replicas[:] = self._replicas
            re_parts = transform.ingest_pair(src[affected], dst[affected])
            new_parts = transform.ingest_pair(u, v)
        except BaseException:
            if vp_written:
                vp[plan.vertices] = plan.sources
                vp[placed] = -1
            state.rollback(saved)
            raise

        # -- commit
        self._state = state
        self._edge_part[affected] = re_parts
        self._edge_part[old_edges:total] = new_parts
        self._num_edges = total
        self._loads = transform.loads
        self._replicas = transform.replicas
        # the equilibrium persists against stable raw ids for the next batch
        self._raw_assign = grow_buffer(
            self._raw_assign, self._raw_assign.size,
            state.num_raw - self._raw_assign.size, fill=-1,
        )
        self._raw_assign[raw_ids] = result.assignment
        self._delta = delta
        self._index.extend(self._src[:total], self._dst[:total])
        self.last_plan = plan
        clock.lap("pass3")

        return BatchStats(
            batch=self.batch_index,
            num_edges=m_batch,
            total_edges=total,
            seconds=0.0,  # stamped by ingest_pair from the clock
            clusters=m_clusters,
            frontier_clusters=m_clusters,
            game_rounds=result.rounds,
            game_moves=result.moves,
            candidate_moves=plan.candidates,
            applied_moves=plan.applied,
            deferred_moves=plan.deferred,
            reassigned_edges=int(affected.size),
            churn_edges=int((re_parts != old_parts).sum()),
        )

    def _warm_start(self, live, graph, endpoints: np.ndarray) -> np.ndarray:
        """The warm-start assignment of this batch's game.

        Every compact cluster whose raw id carried an assignment last
        batch inherits it; a newborn cluster adopts the served partition
        of its highest-degree previously-placed member (it probably split
        or migrated out of that neighborhood), else the partition least
        loaded by player weight (the game's own size).  A newborn cluster's members all joined it this batch,
        so they are found among ``endpoints``.
        """
        raw_ids = live.raw_ids
        m_clusters = live.num_clusters
        # raw ids ascend, so the clusters known to the last equilibrium
        # are a prefix of the compact ids
        init = np.full(m_clusters, -1, dtype=np.int64)
        known = int(np.searchsorted(raw_ids, self._raw_assign.size))
        init[:known] = self._raw_assign[raw_ids[:known]]

        unknown = init < 0
        if unknown.any():
            cl = live.compact(endpoints)
            pick = unknown[cl] & (self._vp[endpoints] >= 0)
            cand, cl = endpoints[pick], cl[pick]
            if cand.size:
                order = np.lexsort((cand, -live.degree[cand], cl))
                grouped = cand[order]
                labels, firsts = np.unique(cl[order], return_index=True)
                init[labels] = self._vp[grouped[firsts]]
            still = np.flatnonzero(init < 0)
            if still.size:
                filled = init >= 0
                weights = graph.player_weights()
                load_init = np.bincount(
                    init[filled], weights=weights[filled].astype(np.float64),
                    minlength=self.k,
                )
                for c in still.tolist():
                    p = int(np.argmin(load_init))
                    init[c] = p
                    load_init[p] += float(weights[c])
        return init
