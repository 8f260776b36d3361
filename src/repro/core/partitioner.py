"""The CLUGP pipeline (Figure 1) and its ablation variants (Figure 9).

Three restreaming passes:

1. :class:`~repro.core.clustering.ClusteringState` (chunk-by-chunk) /
   :func:`~repro.core.clustering.streaming_clustering` (per-edge
   reference) — vertex clusters;
2. :func:`~repro.core.cluster_graph.build_cluster_graph` +
   :class:`~repro.core.game.ClusterPartitioningGame` — cluster ->
   partition map;
3. :class:`~repro.core.transform.TransformState` (chunk-by-chunk) /
   :func:`~repro.core.transform.transform_partitions` (per-edge
   reference) — edge -> partition.

Ablations (Figure 9):

* the default does not split (``ClugpConfig.enable_splitting`` is
  ``False``: pass 1 is Hollocou's allocation-migration, measured to give
  a lower RF than the paper's split rule, DESIGN.md §1);
  ``ClugpConfig(enable_splitting=True)`` runs the paper's split rule;
* :class:`ClugpGreedyPartitioner` ("CLUGP-G") replaces the game with the
  greedy rule "biggest cluster into currently smallest partition".

The contract
------------
Both classes are ``partition(stream, chunk_size=None)``
(:class:`~repro.partitioners.base.EdgePartitioner` owns the entry, the
clock and the result array) and supply the run: three passes over
``stream.batches(chunk_size)``, each recorded as its own stage
(``clustering`` / ``game`` / ``transform``) at every chunk size.  Pass 1
and pass 3 each have one driver, next to the state class it drives
(:meth:`ClusteringState.run`, :meth:`TransformState.run` — which writes
each chunk into its slice of the result); the staged API the distributed
protocol calls (:meth:`~ClugpPartitioner.cluster_summary`,
:meth:`~ClugpPartitioner.transform_with_mapping`) runs on the same two.
:meth:`partition_per_edge` chains the three per-edge oracles
(:func:`streaming_clustering`, :func:`best_response_dynamics`,
:func:`transform_partitions`): bit-identical, whichever tier
:mod:`repro.kernels` resolves for the engines.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .._util import StageTimes, Timer
from ..config import ClugpConfig, GameConfig
from ..graph.stream import EdgeStream
from ..partitioners.base import EdgePartitioner
from .clustering import ClusteringResult, ClusteringState, streaming_clustering
from .cluster_graph import ClusterGraph, build_cluster_graph, grouped_cluster_graph
from .game import ClusterPartitioningGame, GameResult, best_response_dynamics
from .transform import (
    TransformState,
    TransformStats,
    replay_transform_chunked,
    transform_partitions,
)

__all__ = [
    "ClusterSummary",
    "GraphContribution",
    "graph_contribution",
    "ClugpPartitioner",
    "ClugpGreedyPartitioner",
    "greedy_cluster_assignment",
]


class _SealedPayload:
    """Seal/validate shared by the two payloads a node ships.

    A subclass names its scalar header (:meth:`_header`) and its arrays
    (:meth:`_wire_arrays`, fixed canonical order); the node's last act
    before shipping is :meth:`seal`, the coordinator's first act on
    receipt is ``validate()``, which ends in :meth:`_check_seal`.
    """

    checksum: int | None

    def _header(self) -> tuple[int, ...]:
        raise NotImplementedError

    def _wire_arrays(self) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def wire_bytes(self) -> int:
        """Measured serialized size: every array that crosses the wire."""
        return int(sum(a.nbytes for a in self._wire_arrays()))

    def compute_checksum(self) -> int:
        """CRC-32 chained over the scalar header and the wire arrays.

        Cheap enough to run on every payload (a few MB/ms) and exactly
        what the coordinator recomputes to detect corruption in transit.
        """
        crc = zlib.crc32(np.asarray(self._header(), dtype=np.int64).tobytes())
        for array in self._wire_arrays():
            crc = zlib.crc32(np.ascontiguousarray(array).tobytes(), crc)
        return crc

    def seal(self):
        """Stamp :attr:`checksum` (the node's last act before shipping)."""
        self.checksum = self.compute_checksum()
        return self

    def _check_arrays(self, lengths: dict[str, int]) -> str | None:
        """Every named array is a 1-d int64 array of the given length."""
        for name, length in lengths.items():
            array = getattr(self, name)
            if not isinstance(array, np.ndarray) or array.dtype != np.int64:
                return f"{name} has dtype {getattr(array, 'dtype', type(array))}, expected int64"
            if array.shape != (length,):
                return f"{name} has shape {array.shape}, expected ({length},)"
        return None

    def _check_seal(self) -> str | None:
        """An unsealed payload is as unusable as a corrupt one: a seal of
        ``None`` (never stamped) or a stamp the bytes no longer match —
        including a corruption that landed on the stamp itself."""
        if self.checksum is None:
            return "payload was never sealed (no checksum to verify)"
        if self.compute_checksum() != self.checksum:
            return "checksum mismatch (payload corrupted in transit)"
        return None


@dataclass
class ClusterSummary(_SealedPayload):
    """Round 1 of the Section III-C merge: what a node knows about its
    shard after pass 1 and the local game, at cluster granularity.

    No edge — raw or aggregated — is in here.  The coordinator needs only
    enough to fix one global cluster id per vertex:

    * ``volume`` / ``num_clusters`` — the node's cluster table; its ids
      become the global range ``offset .. offset + num_clusters``;
    * ``boundary_*`` — the ``(vertex, cluster, degree)`` triples of the
      shard-boundary vertices seen in this shard, the input of the
      coordinator's max-degree resolution;
    * ``local_assignment`` — the node's local game equilibrium, the warm
      start of the coordinator's global refinement game;
    * ``num_boundary_edges`` — how many of the shard's edges touch a
      boundary vertex (the edges whose cluster labels the resolution may
      change), counted where the edges live.

    The edges follow in round 2, already aggregated under the resolved
    ids (:class:`GraphContribution`).
    """

    node: int
    num_vertices: int
    num_edges: int
    num_clusters: int
    volume: np.ndarray
    boundary_vertices: np.ndarray
    boundary_clusters: np.ndarray
    boundary_degrees: np.ndarray
    num_boundary_edges: int
    local_assignment: np.ndarray
    local_game_rounds: int
    splits: int
    checksum: int | None = None

    def _header(self) -> tuple[int, ...]:
        return (self.node, self.num_vertices, self.num_edges, self.num_clusters,
                self.num_boundary_edges, self.local_game_rounds, self.splits)

    def _wire_arrays(self) -> tuple[np.ndarray, ...]:
        return (
            self.volume,
            self.boundary_vertices,
            self.boundary_clusters,
            self.boundary_degrees,
            self.local_assignment,
        )

    def validate(self) -> str | None:
        """Coordinator-side schema + checksum check; None means healthy.

        Returns a short problem description for anything a corrupt or
        truncated wire transfer could produce: negative sizes, an array
        of the wrong dtype or length, boundary ids outside the shard's
        vertex/cluster space, or a checksum mismatch.
        """
        if min(self.num_clusters, self.num_edges, self.num_vertices) < 0:
            return f"negative sizes (clusters={self.num_clusters}, edges={self.num_edges})"
        if not 0 <= self.num_boundary_edges <= self.num_edges:
            return f"{self.num_boundary_edges} boundary edges of {self.num_edges}"
        num_boundary = np.size(self.boundary_vertices)
        problem = self._check_arrays({
            "volume": self.num_clusters,
            "local_assignment": self.num_clusters,
            "boundary_vertices": num_boundary,
            "boundary_clusters": num_boundary,
            "boundary_degrees": num_boundary,
        })
        if problem:
            return problem
        if num_boundary and not (
            0 <= int(self.boundary_vertices.min())
            and int(self.boundary_vertices.max()) < self.num_vertices
            and 0 <= int(self.boundary_clusters.min())
            and int(self.boundary_clusters.max()) < self.num_clusters
        ):
            return "boundary ids outside the shard's vertex/cluster space"
        return self._check_seal()


@dataclass
class GraphContribution(_SealedPayload):
    """Round 2 of the merge: a shard's edges, aggregated under *global*
    cluster ids.

    Once the coordinator has broadcast the boundary resolution, every
    endpoint of every shard edge has a final global cluster, so the node
    itself can label and group its edges.  What ships is the out-CSR of
    that cluster graph over the whole global id space (the in-CSR never
    crosses the wire): ``internal[c]`` intra-cluster edges plus
    ``(row, col) -> weight`` cut entries, each shard edge counted exactly
    once.  The coordinator's merge is then one :meth:`ClusterGraph.merge`
    of the ``num_nodes`` contributions as they arrived, under the
    identity relabel; only the merged graph gets an in-CSR.
    """

    node: int
    num_clusters: int
    num_edges: int
    internal: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    checksum: int | None = None

    @classmethod
    def from_graph(cls, graph: ClusterGraph, node: int, num_edges: int) -> "GraphContribution":
        """Seal the out-half of a node-built graph for shipping."""
        return cls(
            node=node,
            num_clusters=graph.num_clusters,
            num_edges=num_edges,
            internal=graph.internal,
            indptr=graph.indptr,
            indices=graph.indices,
            weights=graph.weights,
        ).seal()

    def _header(self) -> tuple[int, ...]:
        return (self.node, self.num_clusters, self.num_edges)

    def _wire_arrays(self) -> tuple[np.ndarray, ...]:
        return (self.internal, self.indptr, self.indices, self.weights)

    def validate(self) -> str | None:
        """Coordinator-side schema + checksum check; None means healthy.

        Full schema: every array int64 and of the length the header
        implies, a monotone ``indptr`` from 0 to ``indices.size``,
        neighbour ids in ``[0, num_clusters)``, non-negative weights that
        account for exactly ``num_edges`` edges — then the seal.
        """
        if self.num_clusters < 0 or self.num_edges < 0:
            return f"negative sizes (clusters={self.num_clusters}, edges={self.num_edges})"
        nnz = np.size(self.indices)
        problem = self._check_arrays({
            "internal": self.num_clusters,
            "indptr": self.num_clusters + 1,
            "indices": nnz,
            "weights": nnz,
        })
        if problem:
            return problem
        if int(self.indptr[0]) != 0 or int(self.indptr[-1]) != nnz:
            return f"indptr spans {int(self.indptr[0])}..{int(self.indptr[-1])}, not 0..{nnz}"
        if (np.diff(self.indptr) < 0).any():
            return "indptr is not monotone"
        if nnz and not (
            0 <= int(self.indices.min()) and int(self.indices.max()) < self.num_clusters
        ):
            return f"neighbour ids outside [0, {self.num_clusters})"
        if (self.internal < 0).any() or (self.weights < 0).any():
            return "negative edge counts"
        counted = int(self.internal.sum()) + int(self.weights.sum())
        if counted != self.num_edges:
            return f"graph accounts for {counted} edges, shard has {self.num_edges}"
        return self._check_seal()


def graph_contribution(
    stream: EdgeStream,
    clustering: ClusteringResult,
    offset: int,
    num_global_clusters: int,
    boundary_vertices: np.ndarray,
    boundary_global_cluster: np.ndarray,
    node: int = 0,
) -> tuple[GraphContribution, np.ndarray]:
    """Round 2 (node-side): label this shard's edges with *global* cluster
    ids and aggregate them for shipping.

    Local cluster ``c`` of ``clustering`` is global ``offset + c``; the
    broadcast resolution overrides that for boundary vertices (entries
    for boundary vertices this shard never saw are written too —
    harmless, no shard edge touches them).  Returns the sealed
    contribution and the vertex -> global-cluster map it was built from
    (-1 = not in this shard): pass 3's vertex -> partition view is one
    gather through that map.
    """
    global_of = np.full(stream.num_vertices, -1, dtype=np.int64)
    seen = clustering.active_mask()
    global_of[seen] = clustering.cluster_of[seen] + offset
    global_of[boundary_vertices] = boundary_global_cluster
    graph = grouped_cluster_graph(stream, global_of, num_global_clusters)
    return GraphContribution.from_graph(graph, node, stream.num_edges), global_of


def greedy_cluster_assignment(cluster_graph: ClusterGraph, num_partitions: int) -> np.ndarray:
    """CLUGP-G pass 2: big clusters first, each into the lightest partition.

    This is the classic LPT bin-packing heuristic — balance-only, blind to
    edge cutting — which is exactly what Figure 9 isolates.  A cluster's
    size is its game weight (:meth:`ClusterGraph.player_weights`), so the
    game and the greedy pack the same items.
    """
    weights = cluster_graph.player_weights()
    order = np.argsort(-weights, kind="stable")
    loads = np.zeros(num_partitions, dtype=np.int64)
    assignment = np.empty(cluster_graph.num_clusters, dtype=np.int64)
    for c in order.tolist():
        target = int(np.argmin(loads))
        assignment[c] = target
        loads[target] += int(weights[c])
    return assignment


class ClugpPartitioner(EdgePartitioner):
    """CLUGP: clustering-based restreaming vertex-cut graph partitioning.

    Parameters
    ----------
    num_partitions:
        ``k``.
    seed:
        Seed for the game's random initial assignment.
    config:
        Full :class:`~repro.config.ClugpConfig`; when omitted, a default
        config with this ``k``/``seed`` is built.  Keyword conveniences
        (``imbalance_factor``, ``max_cluster_volume``, ``game``) override
        single fields.

    After :meth:`partition` (or :meth:`partition_per_edge`) the
    intermediate products of the three passes are exposed as :attr:`last_clustering`,
    :attr:`last_cluster_graph`, :attr:`last_game_result` and
    :attr:`last_transform_stats` for inspection, testing, and the
    ablation benchmarks.
    """

    name = "clugp"
    preferred_order = "natural"
    #: config fields a variant fixes, whatever the config says
    _pinned: dict = {}

    def __init__(
        self,
        num_partitions: int,
        seed: int = 0,
        config: ClugpConfig | None = None,
        imbalance_factor: float | None = None,
        max_cluster_volume: int | None = None,
        game: GameConfig | None = None,
    ) -> None:
        super().__init__(num_partitions, seed)
        if config is None:
            config = ClugpConfig(num_partitions=num_partitions)
        if config.num_partitions != num_partitions:
            config = config.with_(num_partitions=num_partitions)
        overrides = {}
        if imbalance_factor is not None:
            overrides["imbalance_factor"] = imbalance_factor
        if max_cluster_volume is not None:
            overrides["max_cluster_volume"] = max_cluster_volume
        if game is not None:
            overrides["game"] = game
        overrides.update(self._pinned)
        config = config.with_(**overrides)
        if config.game.seed != seed:
            config = config.with_(game=config.game.with_(seed=seed))
        self.config = config
        self.last_clustering: ClusteringResult | None = None
        self.last_cluster_graph: ClusterGraph | None = None
        self.last_game_result: GameResult | None = None
        self.last_transform_stats: TransformStats | None = None

    # ------------------------------------------------------------------ #
    # the run: three passes over the stream, one recorded stage each
    # ------------------------------------------------------------------ #

    def _run(
        self, stream: EdgeStream, chunk_size: int, out: np.ndarray, times: StageTimes
    ) -> None:
        cfg = self.config
        with Timer() as t1:
            clustering = self._pass1(stream, chunk_size)
        with Timer() as t2:
            cluster_graph = build_cluster_graph(stream, clustering)
            game_result = self._map_clusters(cluster_graph)
        with Timer() as t3:
            transform = TransformState(
                clustering,
                game_result.assignment,
                cfg.num_partitions,
                num_edges=stream.num_edges,
                num_vertices=stream.num_vertices,
                imbalance_factor=cfg.imbalance_factor,
            )
            transform.run(stream, chunk_size, out)
        self._record(
            times, (t1, t2, t3), clustering, cluster_graph, game_result, transform.stats
        )

    def _per_edge(self, stream: EdgeStream, out: np.ndarray, times: StageTimes) -> None:
        """The faithful per-edge pipeline: the three oracle functions."""
        cfg = self.config
        with Timer() as t1:
            clustering = streaming_clustering(
                stream,
                cfg.resolve_vmax(stream.num_edges),
                enable_splitting=cfg.enable_splitting,
            )
        with Timer() as t2:
            cluster_graph = build_cluster_graph(stream, clustering)
            game_result = self._map_clusters_per_edge(cluster_graph)
        with Timer() as t3:
            out[:], stats = transform_partitions(
                stream,
                clustering,
                game_result.assignment,
                cfg.num_partitions,
                imbalance_factor=cfg.imbalance_factor,
            )
        self._record(times, (t1, t2, t3), clustering, cluster_graph, game_result, stats)

    def _pass1(self, stream: EdgeStream, chunk_size: int) -> ClusteringResult:
        """Pass 1 as configured (``V_max`` resolves against ``num_edges``,
        as Section VI-A prescribes)."""
        cfg = self.config
        return ClusteringState(
            stream.num_vertices,
            cfg.resolve_vmax(stream.num_edges),
            enable_splitting=cfg.enable_splitting,
        ).run(stream, chunk_size)

    def _record(self, times, timers, clustering, cluster_graph, game_result, stats):
        """One stage per pass, and the per-pass products for inspection."""
        for stage, timer in zip(("clustering", "game", "transform"), timers):
            times.add(stage, timer.elapsed)
        self.last_clustering = clustering
        self.last_cluster_graph = cluster_graph
        self.last_game_result = game_result
        self.last_transform_stats = stats

    # ------------------------------------------------------------------ #
    # staged API (the distributed protocol's separable stages)
    # ------------------------------------------------------------------ #

    def cluster_summary(
        self,
        stream: EdgeStream,
        boundary_mask: np.ndarray | None = None,
        chunk_size: int | None = None,
        node: int = 0,
    ) -> ClusterSummary:
        """Round 1 (node-side): pass 1 over ``stream``, the local game,
        and the serializable :class:`ClusterSummary` for the coordinator.

        ``boundary_mask`` flags shard-boundary vertices (vertices that
        also appear in other shards); the summary reports their
        ``(vertex, cluster, degree)`` triples and how many shard edges
        touch one.  With no mask (or a single shard) there are none.

        The intermediate pipeline products are retained on
        :attr:`last_clustering` / :attr:`last_cluster_graph` /
        :attr:`last_game_result` for the later stages
        (:func:`graph_contribution`, :meth:`transform_with_mapping`).
        """
        size = chunk_size if chunk_size is not None else self.default_chunk_size
        clustering = self._pass1(stream, size)
        cluster_graph = build_cluster_graph(stream, clustering)
        game_result = self._map_clusters(cluster_graph)
        if boundary_mask is None:
            bverts = np.empty(0, dtype=np.int64)
            num_boundary_edges = 0
        else:
            bverts = np.flatnonzero(clustering.active_mask() & boundary_mask)
            num_boundary_edges = int(np.count_nonzero(
                boundary_mask[stream.src] | boundary_mask[stream.dst]
            ))
        self.last_clustering = clustering
        self.last_cluster_graph = cluster_graph
        self.last_game_result = game_result
        return ClusterSummary(
            node=node,
            num_vertices=stream.num_vertices,
            num_edges=stream.num_edges,
            num_clusters=clustering.num_clusters,
            volume=clustering.volume,
            boundary_vertices=bverts,
            boundary_clusters=clustering.cluster_of[bverts],
            boundary_degrees=clustering.degree[bverts],
            num_boundary_edges=num_boundary_edges,
            local_assignment=game_result.assignment,
            local_game_rounds=game_result.rounds,
            splits=clustering.splits,
        ).seal()

    def transform_with_mapping(
        self,
        stream: EdgeStream,
        vertex_partition: np.ndarray,
        clustering: ClusteringResult | None = None,
        chunk_size: int | None = None,
        load_caps: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stage 4 (node-side): replay pass 3 over ``stream`` under an
        externally supplied vertex->partition mapping.

        The distributed merged mode broadcasts the coordinator's global
        decision and each node re-streams only its own shard; the local
        mirror/degree heuristics (``divided`` flags, degrees) still come
        from the node's pass-1 ``clustering`` (default: the one retained
        by :meth:`cluster_summary`).  ``load_caps`` carries per-partition
        quotas from the balance quota exchange (None = the uniform cap).
        """
        if clustering is None:
            clustering = self.last_clustering
        if clustering is None:
            raise RuntimeError("run cluster_summary first or pass clustering")
        cfg = self.config
        size = chunk_size if chunk_size is not None else self.default_chunk_size
        edge_partition, stats = replay_transform_chunked(
            stream,
            clustering,
            vertex_partition,
            cfg.num_partitions,
            imbalance_factor=cfg.imbalance_factor,
            load_caps=load_caps,
            chunk_size=size,
        )
        self.last_transform_stats = stats
        return edge_partition

    # ------------------------------------------------------------------ #

    def _map_clusters(self, cluster_graph: ClusterGraph) -> GameResult:
        cfg = self.config
        if not cfg.use_game:
            assignment = greedy_cluster_assignment(cluster_graph, cfg.num_partitions)
            return GameResult(
                assignment=assignment,
                rounds=0,
                moves=0,
                lambda_value=0.0,
                potential_trace=[],
            )
        return ClusterPartitioningGame(cluster_graph, cfg.num_partitions, cfg.game).run()

    def _map_clusters_per_edge(self, cluster_graph: ClusterGraph) -> GameResult:
        """Pass 2 of the per-edge pipeline: the oracle plays wherever
        :meth:`_map_clusters` would run the game."""
        cfg = self.config
        if cfg.use_game:
            return best_response_dynamics(cluster_graph, cfg.num_partitions, cfg.game)
        return self._map_clusters(cluster_graph)

    def state_memory_bytes(self, stream: EdgeStream) -> int:
        """O(2|V|) vertex tables + cluster tables (Section VI: CLUGP keeps
        the vertex->cluster map and the degree array) + pass 3's replica
        summary, one uint64 word per vertex at any k."""
        m = self.last_clustering.num_clusters if self.last_clustering else 0
        return 3 * stream.num_vertices * 8 + 3 * m * 8


class ClugpGreedyPartitioner(ClugpPartitioner):
    """CLUGP-G ablation: greedy cluster placement instead of the game."""

    name = "clugp-g"
    _pinned = {"use_game": False}
