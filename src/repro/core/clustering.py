"""Pass 1 — streaming clustering (Algorithm 2 of the paper).

Extends Hollocou et al.'s streaming vertex clustering (*allocation* +
*migration*) with the paper's new *splitting* operation
(allocation-**splitting**-migration):

* **allocation** — an unseen endpoint opens a fresh singleton cluster;
* **splitting** — when a cluster's *volume* (sum of partial degrees of its
  member master vertices) reaches ``V_max``, the vertex that pushed it over
  is split out into a fresh cluster, leaving a *mirror* behind.  The vertex
  is marked *divided*; pass 3 (Algorithm 1) reads that flag.
  Splitting provably lowers the worst-case replication factor on power-law
  graphs (Theorems 1-2): a vertex needs degree ~``(V_max-1)(r-1)/d_max``
  to reach r replicas under CLUGP vs degree ``r-1`` under Holl.

  *Reproduction note*: the paper's pseudocode splits an endpoint on every
  edge incident to a full cluster.  In steady state nearly every mature
  cluster sits at ``V_max`` (total volume is ``2|E|`` against capacity
  ``|E|/k``), so the literal rule shreds clusters on synthetic stand-in
  streams.  The paper's own analysis assumes ``V_max > d_max`` and each
  split producing exactly one replica (Section IV-A fact (a)), so we add
  the two guards that make those assumptions hold by construction: a
  vertex splits **at most once** (one mirror each, keeping fact (a) tight)
  and only while ``deg(x) < V_max`` (the Theorem-2 regime).  Both guards
  are no-ops on the paper's billion-edge crawls where splits are rare;
  see DESIGN.md for the full analysis.
* **migration** — after each edge, the endpoint sitting in the
  lower-volume cluster migrates to the other endpoint's cluster (if both
  clusters are below ``V_max``), gluing communities together bottom-up.

With ``enable_splitting=False`` — the default here and in
``ClugpConfig`` (DESIGN.md §1) — the procedure degenerates to Holl's
allocation-migration (Figure 9's CLUGP-S ablation); ``True`` runs the
splitting operation above.

Complexities (Section IV-A): time O(|E|), space O(|V|).

Chunked ingestion
-----------------
:class:`ClusteringState` consumes chunks as contiguous int64 endpoint
columns (:meth:`~ClusteringState.ingest_pair`; :meth:`~ClusteringState.run`
is the one pass-1 driver over a stream's batches) and produces
**bit-identical** results to the per-edge oracle
:func:`streaming_clustering`.  The state is held in flat
arrays (``cluster_of``, ``degree``, ``divided`` and a growable
``volumes`` buffer), and each chunk is one call into the
resolved :mod:`repro.kernels` backend's allocation/splitting/migration
replay over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from .._util import check_positive_int
from ..graph.stream import EdgeStream, check_edge_columns

__all__ = [
    "ClusteringResult",
    "ClusteringState",
    "LiveClustering",
    "streaming_clustering",
]


@dataclass
class ClusteringResult:
    """Output of pass 1.

    Attributes
    ----------
    cluster_of:
        ``clu[v]`` — final cluster id of every vertex's master copy
        (-1 for vertices never seen in the stream).  Cluster ids are
        *compact*: ``0..num_clusters-1``, renumbered in order of first use.
    degree:
        ``deg[v]`` — degree observed over the full stream.
    volume:
        Final cluster volumes (indexed by compact cluster id).
    divided:
        Boolean mask — vertices that triggered a split (each leaves
        exactly one mirror behind, so ``splits == divided.sum()``).
    num_clusters:
        ``m`` — number of non-empty clusters.
    max_volume:
        The ``V_max`` used.
    splits, migrations:
        Operation counters (for tests and the ablation analysis).
    raw_ids:
        ``raw_ids[c]`` — the pre-compaction (raw) id of compact cluster
        ``c``.  Raw ids are *stable across snapshots* of one
        :class:`ClusteringState` (a surviving cluster keeps its raw id for
        the lifetime of the state), which is what lets the incremental
        :class:`~repro.service.PartitionService` carry the game
        equilibrium from one batch to the next.  ``None`` only on results
        built by legacy constructors that bypass :func:`_compact`.
    """

    cluster_of: np.ndarray
    degree: np.ndarray
    volume: np.ndarray
    divided: np.ndarray
    num_clusters: int
    max_volume: int
    splits: int = 0
    migrations: int = 0
    raw_ids: np.ndarray | None = field(default=None, repr=False)

    def active_mask(self) -> np.ndarray:
        """Boolean mask of vertices seen by the stream (``cluster_of >= 0``).

        The shard-local "seen set" of the distributed protocol: a node's
        summary, its vertex->partition view, and the boundary intersection
        are all built against this mask.
        """
        return self.cluster_of >= 0

    def cluster_sizes(self) -> np.ndarray:
        """Number of master vertices per cluster."""
        active = self.cluster_of[self.active_mask()]
        return np.bincount(active, minlength=self.num_clusters).astype(np.int64)


@dataclass(frozen=True)
class LiveClustering:
    """A :class:`ClusteringState` read in place (:meth:`ClusteringState.live`).

    What :meth:`ClusteringState.snapshot` tells a consumer that keeps the
    state alive across batches, without the |V|-sized copy and
    renumbering: the three vertex tables are *views* of the
    live arrays (valid until the state next ingests or rolls back; do not
    write), and compact cluster ids are derived on demand — compaction
    renumbers the surviving raw ids in ascending order, so the compact id
    of a live raw id is its rank in ``raw_ids``.

    Attributes
    ----------
    raw_ids:
        The surviving raw cluster ids, ascending — array for array
        ``snapshot().raw_ids``.
    raw_of:
        Raw cluster id of every vertex's master copy (-1 = never seen).
    degree / divided:
        As on :class:`ClusteringResult`; all pass 3 reads of a clustering
        once it is handed a vertex->partition map.
    """

    raw_ids: np.ndarray
    raw_of: np.ndarray
    degree: np.ndarray
    divided: np.ndarray

    @property
    def num_clusters(self) -> int:
        """``m`` — number of non-empty clusters."""
        return int(self.raw_ids.size)

    def compact(self, vertices: np.ndarray) -> np.ndarray:
        """``snapshot().cluster_of[vertices]`` for *seen* vertices."""
        return np.searchsorted(self.raw_ids, self.raw_of[vertices])


def streaming_clustering(
    stream: EdgeStream,
    max_volume: int,
    enable_splitting: bool = False,
) -> ClusteringResult:
    """Run Algorithm 2 over ``stream`` with cluster capacity ``max_volume``.

    This is the faithful per-edge reference loop (the path a non-vectorized
    streaming system executes); :class:`ClusteringState` is the chunked
    production path and must stay bit-identical to it.

    Parameters
    ----------
    stream:
        The edge stream (the paper assumes BFS crawl order; any order is
        accepted, quality just degrades gracefully).
    max_volume:
        ``V_max`` — volume capacity of a cluster (default pipeline choice
        is ``|E| / k``).
    enable_splitting:
        ``True`` runs the splitting operation; the default ``False``
        reproduces Holl (allocation-migration only).
    """
    check_positive_int(max_volume, "max_volume")
    n = stream.num_vertices
    cluster_of = np.full(n, -1, dtype=np.int64)
    degree = np.zeros(n, dtype=np.int64)
    divided = np.zeros(n, dtype=bool)
    volumes: list[int] = []  # indexed by raw cluster id
    splits = migrations = 0

    def new_cluster() -> int:
        volumes.append(0)
        return len(volumes) - 1

    src_list = stream.src.tolist()
    dst_list = stream.dst.tolist()
    clu = cluster_of  # local aliases for speed
    deg = degree
    for u, v in zip(src_list, dst_list):
        # --- allocation -------------------------------------------------
        if clu[u] == -1:
            clu[u] = new_cluster()
        if clu[v] == -1:
            clu[v] = new_cluster()
        cu = int(clu[u])
        cv = int(clu[v])
        deg[u] += 1
        deg[v] += 1
        volumes[cu] += 1
        volumes[cv] += 1
        # --- splitting ----------------------------------------------------
        if enable_splitting and u != v:
            if (
                volumes[cu] >= max_volume
                and 1 < deg[u] < max_volume
                and not divided[u]
            ):
                c_new = new_cluster()
                divided[u] = True
                volumes[cu] -= int(deg[u])
                volumes[c_new] += int(deg[u])
                clu[u] = c_new
                splits += 1
            cv = int(clu[v])  # u's split may have lowered volumes[cv] when cv == cu
            if (
                volumes[cv] >= max_volume
                and 1 < deg[v] < max_volume
                and not divided[v]
            ):
                c_new = new_cluster()
                divided[v] = True
                volumes[cv] -= int(deg[v])
                volumes[c_new] += int(deg[v])
                clu[v] = c_new
                splits += 1
        # --- migration ----------------------------------------------------
        cu = int(clu[u])
        cv = int(clu[v])
        if cu != cv and volumes[cu] < max_volume and volumes[cv] < max_volume:
            if volumes[cu] <= volumes[cv]:
                volumes[cu] -= int(deg[u])
                volumes[cv] += int(deg[u])
                clu[u] = cv
            else:
                volumes[cv] -= int(deg[v])
                volumes[cu] += int(deg[v])
                clu[v] = cu
            migrations += 1

    return _compact(
        cluster_of, degree, volumes, divided, max_volume, splits, migrations
    )


class ClusteringState:
    """Incremental pass-1 state consuming chunks of endpoint columns.

    Drives Algorithm 2 over a chunked stream with results bit-identical to
    :func:`streaming_clustering` at every chunk size: whole chunks are
    dispatched into the :mod:`repro.kernels` replay over the flat array
    state.

    Usage::

        result = ClusteringState(stream.num_vertices, vmax).run(stream, chunk_size)

    or, for a feed that arrives batch by batch, :meth:`ingest_pair` per
    batch and :meth:`finalize` (or :meth:`snapshot` / :meth:`live`).
    """

    def __init__(
        self,
        num_vertices: int,
        max_volume: int,
        enable_splitting: bool = False,
    ) -> None:
        check_positive_int(max_volume, "max_volume")
        self._backend = kernels.get_backend()
        self.num_vertices = int(num_vertices)
        self.max_volume = int(max_volume)
        self.enable_splitting = bool(enable_splitting)
        n = self.num_vertices
        self._clu = np.full(n, -1, dtype=np.int64)
        self._deg = np.zeros(n, dtype=np.int64)
        self._div = np.zeros(n, dtype=bool)
        self._vol = np.zeros(16, dtype=np.int64)
        self.num_raw = 0
        self.splits = 0
        self.migrations = 0
        self.edges_ingested = 0
        self._finalized = False

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #

    def run(self, stream: EdgeStream, chunk_size: int) -> ClusteringResult:
        """Pass 1 over ``stream``, read as chunks of ``chunk_size`` edges:
        the one driver every whole-stream caller of this state shares."""
        for u, v in stream.batches(chunk_size):
            self.ingest_pair(u, v)
        return self.finalize()

    def ingest_pair(self, u: np.ndarray, v: np.ndarray) -> None:
        """Consume one chunk given as endpoint column arrays.

        An id outside ``[0, num_vertices)`` raises
        :class:`~repro.reliability.ingest.VertexRangeError` before any
        state changes.
        """
        if self._finalized:
            raise RuntimeError("ClusteringState already finalized")
        # the kernels index raw int64 memory; free for int64 columns
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        check_edge_columns(u, v, self.num_vertices)
        m = u.shape[0]
        if m == 0:
            return
        self.edges_ingested += m
        # the kernel mutates _clu/_deg/_div/_vol in place and reports
        # raw-cluster growth and the operation counters through a small
        # int64 array; worst case: 2 new singletons + 2 splits per edge,
        # one raw id each
        need = self.num_raw + 4 * m
        if need > self._vol.size:
            vol = np.zeros(max(need, 2 * self._vol.size), dtype=np.int64)
            vol[: self.num_raw] = self._vol[: self.num_raw]
            self._vol = vol
        counters = np.array(
            [self.num_raw, self.splits, self.migrations], dtype=np.int64
        )
        self._backend.clustering_chunk(
            u,
            v,
            self.max_volume,
            self.enable_splitting,
            self._clu,
            self._deg,
            self._div.view(np.uint8),
            self._vol,
            counters,
        )
        self.num_raw, self.splits, self.migrations = counters.tolist()

    # ------------------------------------------------------------------ #
    # checkpoint serialization
    # ------------------------------------------------------------------ #

    def state_dict(self) -> tuple[dict, dict]:
        """Serialize the live state as ``(arrays, meta)`` for a checkpoint.

        Everything pass 1 needs to continue bit-identically is captured:
        the vertex tables, raw cluster volumes and the operation
        counters.  Raw ids survive the round trip, so a restored state
        keeps the snapshot-stability invariant the incremental service
        leans on.  Which tier ingested is *not*
        state — the tiers are bit-identical, so :meth:`from_state` may
        restore in a process that resolves a different backend than the
        one that saved.
        """
        arrays = {
            "clu": self._clu,
            "deg": self._deg,
            "div": self._div,
            "vol": self._vol[: self.num_raw],
        }
        meta = {
            "num_vertices": self.num_vertices,
            "max_volume": self.max_volume,
            "enable_splitting": self.enable_splitting,
            "splits": self.splits,
            "migrations": self.migrations,
            "edges_ingested": self.edges_ingested,
        }
        return arrays, meta

    @classmethod
    def from_state(cls, arrays: dict, meta: dict) -> "ClusteringState":
        """Rebuild a live state from :meth:`state_dict` output.

        The restored state continues ingestion exactly where the saved
        one stopped — same clusters, same raw ids, same counters — which
        is the pass-1 half of the bit-identical-resume invariant
        (DESIGN.md §9).  Arrays and meta keys it does not read are
        ignored: older checkpoints carry the two arrays of the retired
        mirror journal, a retired count of singleton clusters opened and
        the counters of the numpy tier's retired chunk classifier
        (``edges_suspect``, ``chunk_index``, ``scalar_bias``).

        The kernels index the tables with vertex and raw cluster ids, so
        shapes and ids that do not fit ``num_vertices`` and the saved
        volumes raise ``ValueError`` here instead of at the next ingest.
        """
        state = cls(
            int(meta["num_vertices"]),
            int(meta["max_volume"]),
            enable_splitting=bool(meta["enable_splitting"]),
        )
        n = state.num_vertices
        clu, deg, div = (
            np.array(arrays[key], dtype=dtype)
            for key, dtype in (("clu", np.int64), ("deg", np.int64), ("div", bool))
        )
        vol = np.ascontiguousarray(arrays["vol"], dtype=np.int64)
        for key, table in (("clu", clu), ("deg", deg), ("div", div)):
            if table.shape != (n,):
                raise ValueError(f"checkpoint {key} has shape {table.shape}, not ({n},)")
        if not _within(clu, -1, vol.size):
            raise ValueError(f"checkpoint clu names a cluster outside [-1, {vol.size})")
        state._clu, state._deg, state._div = clu, deg, div
        state.num_raw = int(vol.size)
        state._vol = np.zeros(max(16, vol.size), dtype=np.int64)
        state._vol[: vol.size] = vol
        state.splits = int(meta["splits"])
        state.migrations = int(meta["migrations"])
        state.edges_ingested = int(meta["edges_ingested"])
        return state

    # ------------------------------------------------------------------ #

    def raw_clusters(self, vertices: np.ndarray) -> np.ndarray:
        """Current *raw* (pre-compaction) cluster id of each given vertex.

        Raw ids are stable for the lifetime of the state: allocation and
        splitting only append fresh ids and migration moves vertices
        between existing ids, so a cluster that survives keeps its raw id
        across every subsequent :meth:`snapshot`.  ``-1`` marks vertices
        not yet seen.  The service layer reads these before and after a
        batch to find the endpoints that changed cluster, and carries its
        game's equilibrium from batch to batch under them.
        """
        return self._clu[np.asarray(vertices, dtype=np.int64)]

    def savepoint(self, vertices: np.ndarray) -> tuple:
        """Capture everything ingesting edges among ``vertices`` can change.

        Allocation, splitting and migration act only on an edge's own
        endpoints, and every volume they move belongs to a cluster that
        held one of the endpoints at the savepoint or was born after it —
        so the rows of ``vertices``, the volumes of their clusters and the
        scalar counters are the whole footprint, O(``len(vertices)``).
        :meth:`rollback` undoes any ingestion whose edges had all their
        endpoints in ``vertices``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        raw = self._clu[vertices]
        clusters = raw[raw >= 0]
        return (
            vertices, raw, self._deg[vertices], self._div[vertices],
            clusters, self._vol[clusters], self.num_raw,
            (self.splits, self.migrations, self.edges_ingested),
        )

    def rollback(self, saved: tuple) -> None:
        """Restore the state captured by :meth:`savepoint`."""
        vertices, raw, deg, div, clusters, vol, num_raw, scalars = saved
        self._clu[vertices] = raw
        self._deg[vertices] = deg
        self._div[vertices] = div
        self._vol[clusters] = vol
        self._vol[num_raw : self.num_raw] = 0  # raw ids born since are unborn again
        self.num_raw = num_raw
        self.splits, self.migrations, self.edges_ingested = scalars

    def live(self) -> LiveClustering:
        """The current clustering as views of the live tables; O(raw ids).

        A raw cluster's volume is by construction the sum of its members'
        degrees — allocation, splitting and migration all move a vertex's
        whole degree with it — and a seen vertex has degree >= 1, so a raw
        id has a member iff its volume is positive.  That makes the
        surviving ids one ``flatnonzero`` over the raw volumes instead of
        :func:`_compact`'s passes over every vertex.
        """
        if self._finalized:
            raise RuntimeError("ClusteringState already finalized")
        return LiveClustering(
            raw_ids=np.flatnonzero(self._vol[: self.num_raw] > 0),
            raw_of=self._clu,
            degree=self._deg,
            divided=self._div,
        )

    def snapshot(self) -> ClusteringResult:
        """Compact the *current* state into a :class:`ClusteringResult`
        without ending ingestion.

        Unlike :meth:`finalize` the state stays live — further
        :meth:`ingest_pair` calls continue exactly where the stream left off,
        and the returned result is bit-identical to what
        :func:`streaming_clustering` produces on the prefix ingested so
        far (the warm-state invariant the service tests pin down).  The
        arrays inside the result are copies, so later ingestion never
        mutates an outstanding snapshot.
        """
        if self._finalized:
            raise RuntimeError("ClusteringState already finalized")
        # _compact builds fresh arrays from cluster_of and the volumes;
        # degree and divided it stores as given, so those two are copied
        return _compact(
            self._clu,
            self._deg.copy(),
            self._vol[: self.num_raw],
            self._div.copy(),
            self.max_volume,
            self.splits,
            self.migrations,
        )

    def finalize(self) -> ClusteringResult:
        """Compact cluster ids and return the :class:`ClusteringResult`."""
        self._finalized = True
        return _compact(
            self._clu,
            self._deg,
            self._vol[: self.num_raw],
            self._div,
            self.max_volume,
            self.splits,
            self.migrations,
        )


def _within(ids: np.ndarray, lo: int, hi: int) -> bool:
    """Every entry of ``ids`` lies in ``[lo, hi)``."""
    return ids.size == 0 or (int(ids.min()) >= lo and int(ids.max()) < hi)


def _compact(
    cluster_of: np.ndarray,
    degree: np.ndarray,
    volumes,
    divided: np.ndarray,
    max_volume: int,
    splits: int,
    migrations: int,
) -> ClusteringResult:
    """Renumber surviving cluster ids to a dense ``0..m-1`` range.

    Splits and migrations leave empty raw clusters behind; only clusters
    that still hold at least one master vertex get a compact id.

    The surviving raw ids are recorded on the result (``raw_ids``) so
    consumers that snapshot repeatedly (the incremental service) can
    correlate compact ids across snapshots.
    """
    raw_count = len(volumes)
    used = np.zeros(raw_count, dtype=bool)
    active = cluster_of >= 0
    labels = cluster_of[active]
    used[labels] = True
    raw_ids = np.flatnonzero(used)
    num_used = int(raw_ids.size)
    remap = np.full(raw_count, -1, dtype=np.int64)
    remap[raw_ids] = np.arange(num_used, dtype=np.int64)
    compact_of = cluster_of.copy()
    compact_of[active] = remap[labels]
    return ClusteringResult(
        cluster_of=compact_of,
        degree=degree,
        volume=np.asarray(volumes, dtype=np.int64)[raw_ids],
        divided=divided,
        num_clusters=num_used,
        max_volume=max_volume,
        splits=splits,
        migrations=migrations,
        raw_ids=raw_ids,
    )
