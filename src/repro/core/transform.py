"""Pass 3 — partition transformation (Algorithm 1 of the paper).

Joins the vertex->cluster table (pass 1) with the cluster->partition table
(pass 2) on the fly — ``{<v_i, p_j>} = {<v_i, c_j>} |><| {<c_i, p_j>}`` —
and re-streams the edges to produce the final edge->partition assignment:

* **hard load cap** (lines 6-14): ``L_max = tau * |E| / k``; an edge whose
  both endpoint partitions are full spills to any underfull partition, so
  the relative balance *strictly* conforms to ``tau``;
* **agreement** (lines 15-16): both endpoints in the same partition — the
  edge goes there, no replica;
* **mirror reuse** (lines 18-19): a *divided* vertex already has mirrors
  (pass 1 split it), so it is the one cut again — the edge follows the
  other endpoint;
* **degree rule** (lines 21-22): otherwise the higher-degree endpoint is
  cut (it will be replicated anyway on a power-law graph — the HDRF/DBH
  insight).

Space O(k) beyond the pass-1 tables, time O(|E|) (the spill scan is
amortized O(k) total because partitions only fill up).

Chunked ingestion
-----------------
:class:`TransformState` consumes chunks as contiguous int64 endpoint
columns (:meth:`~TransformState.ingest_pair`; :meth:`~TransformState.run`
is the one pass-3 driver, writing each chunk's answer into its slice of
a caller's result array) and is bit-identical to the per-edge oracle
:func:`transform_partitions`: each chunk is one call into the resolved
:mod:`repro.kernels` backend's loop, spill branch included.
"""

from __future__ import annotations

import math

import numpy as np

from .. import kernels
from ..graph.stream import EdgeStream, check_edge_columns
from .clustering import ClusteringResult

__all__ = [
    "transform_partitions",
    "replay_transform_chunked",
    "TransformState",
    "TransformStats",
]


class TransformStats:
    """Counters describing which Algorithm 1 rule fired per edge."""

    __slots__ = ("agreement", "mirror_reuse", "degree_cut", "balance_spill", "load_cap")

    def __init__(self, load_cap: int) -> None:
        self.agreement = 0
        self.mirror_reuse = 0
        self.degree_cut = 0
        self.balance_spill = 0
        self.load_cap = load_cap

    def total(self) -> int:
        """Edges placed so far, summed over the four placement rules."""
        return self.agreement + self.mirror_reuse + self.degree_cut + self.balance_spill

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TransformStats(agree={self.agreement}, mirror={self.mirror_reuse}, "
            f"degree={self.degree_cut}, spill={self.balance_spill})"
        )


def _check_inputs(
    clustering: ClusteringResult,
    cluster_partition: np.ndarray,
    num_partitions: int,
    imbalance_factor: float,
) -> np.ndarray:
    if imbalance_factor < 1.0:
        raise ValueError(f"imbalance_factor must be >= 1, got {imbalance_factor}")
    cluster_partition = np.asarray(cluster_partition, dtype=np.int64)
    if cluster_partition.shape != (clustering.num_clusters,):
        raise ValueError(
            f"cluster_partition must map all {clustering.num_clusters} clusters"
        )
    if cluster_partition.size and (
        cluster_partition.min() < 0 or cluster_partition.max() >= num_partitions
    ):
        raise ValueError("cluster_partition ids out of range")
    return cluster_partition


def _vertex_partition_join(
    clustering: ClusteringResult, cluster_partition: np.ndarray, num_vertices: int
) -> np.ndarray:
    """vertex -> partition via the join (vectorized once; O(|V|) memory is
    already required by pass 1's tables, so this does not change the
    asymptotic footprint; the paper's sequential two-table query is an
    equivalent O(1)-per-edge lookup)."""
    vertex_partition = np.full(num_vertices, -1, dtype=np.int64)
    seen = clustering.active_mask()
    vertex_partition[seen] = cluster_partition[clustering.cluster_of[seen]]
    return vertex_partition


def transform_partitions(
    stream: EdgeStream,
    clustering: ClusteringResult,
    cluster_partition: np.ndarray,
    num_partitions: int,
    imbalance_factor: float = 1.0,
) -> tuple[np.ndarray, TransformStats]:
    """Run Algorithm 1 per edge; returns ``(edge_partition, stats)``.

    This is the faithful per-edge reference loop; :class:`TransformState`
    is the chunked production path and must stay bit-identical to it.

    Parameters
    ----------
    stream:
        The edge stream (third pass over the same edges).
    clustering:
        Pass-1 output (cluster ids, degrees, divided flags, mirrors).
    cluster_partition:
        Pass-2 output — partition id per compact cluster id.
    num_partitions:
        ``k``.
    imbalance_factor:
        ``tau >= 1``; the hard cap is ``L_max = ceil(tau * |E| / k)``.
    """
    k = int(num_partitions)
    cluster_partition = _check_inputs(
        clustering, cluster_partition, k, imbalance_factor
    )
    num_edges = stream.num_edges
    load_cap = max(1, math.ceil(imbalance_factor * num_edges / k))
    stats = TransformStats(load_cap)
    vertex_partition = _vertex_partition_join(
        clustering, cluster_partition, stream.num_vertices
    )
    divided = clustering.divided
    degree = clustering.degree

    loads = np.zeros(k, dtype=np.int64)
    out = np.empty(num_edges, dtype=np.int64)
    spill_ptr = 0  # rotates forward over partitions; loads only grow
    src_list = stream.src.tolist()
    dst_list = stream.dst.tolist()
    vp = vertex_partition
    for i in range(num_edges):
        u = src_list[i]
        v = dst_list[i]
        pu = int(vp[u])
        pv = int(vp[v])
        if loads[pu] >= load_cap or loads[pv] >= load_cap:
            if loads[pu] < load_cap:
                target = pu
            elif loads[pv] < load_cap:
                target = pv
            else:
                while loads[spill_ptr] >= load_cap:
                    spill_ptr += 1
                    if spill_ptr == k:  # pragma: no cover - tau>=1 guarantees room
                        raise RuntimeError("no underfull partition available")
                target = spill_ptr
            stats.balance_spill += 1
        elif pu == pv:
            target = pu
            stats.agreement += 1
        elif divided[u] and not divided[v]:
            target = pv  # u already has mirrors: cut u again
            stats.mirror_reuse += 1
        elif divided[v] and not divided[u]:
            target = pu
            stats.mirror_reuse += 1
        else:
            # both or neither divided: cut the higher-degree endpoint
            target = pu if degree[v] > degree[u] else pv
            stats.degree_cut += 1
        out[i] = target
        loads[target] += 1
    return out, stats


class TransformState:
    """Incremental pass-3 state consuming chunks of endpoint columns.

    Bit-identical to :func:`transform_partitions`; see the module
    docstring for the two tiers.

    Usage::

        state = TransformState(clustering, cluster_partition, k,
                               num_edges=stream.num_edges, num_vertices=n)
        state.run(stream, chunk_size, out)  # out: one int64 per stream edge
    """

    def __init__(
        self,
        clustering: ClusteringResult,
        cluster_partition: np.ndarray | None,
        num_partitions: int,
        num_edges: int,
        num_vertices: int,
        imbalance_factor: float = 1.0,
        vertex_partition: np.ndarray | None = None,
        load_caps: np.ndarray | None = None,
        initial_loads: np.ndarray | None = None,
    ) -> None:
        """Build pass-3 state for a stream of ``num_edges`` edges.

        Parameters
        ----------
        clustering:
            Pass-1 output; supplies the ``divided`` flags and degrees the
            mirror/degree rules read (and the join table when
            ``cluster_partition`` is given).
        cluster_partition:
            Pass-2 output (partition per compact cluster); mutually
            exclusive with ``vertex_partition``.
        num_partitions:
            ``k``.
        num_edges:
            Number of edges this state will ingest; sizes the uniform
            hard cap ``L_max = ceil(tau * num_edges / k)`` and validates
            that the caps can hold the stream.
        num_vertices:
            Vertex-id space size (shapes the join / mapping checks).
        imbalance_factor:
            ``tau >= 1`` for the uniform cap.
        vertex_partition:
            Externally supplied vertex->partition map (the distributed
            broadcast, or the service's served map); ``-1`` marks
            vertices absent from this shard.
        load_caps:
            Per-partition quota vector overriding the uniform cap (the
            PR 5 balance quota exchange).
        initial_loads:
            Pre-existing per-partition edge counts to seed ``loads``
            with.  The incremental service uses this for *delta
            application*: retained edges keep their partitions, their
            counts are seeded here, and only the re-routed and new edges
            stream through this state — bit-identical to re-ingesting
            the retained edges first (loads are the only coupling
            between edges on the non-spill path).
        """
        k = int(num_partitions)
        self._backend = kernels.get_backend()
        if (cluster_partition is None) == (vertex_partition is None):
            raise ValueError(
                "exactly one of cluster_partition and vertex_partition is required"
            )
        self._external = False
        if vertex_partition is None:
            cluster_partition = _check_inputs(
                clustering, cluster_partition, k, imbalance_factor
            )
            vp = _vertex_partition_join(clustering, cluster_partition, num_vertices)
        else:
            # externally supplied mapping: the distributed merged mode
            # replays pass 3 on each node under the coordinator's global
            # vertex->partition decision instead of the local join
            if imbalance_factor < 1.0:
                raise ValueError(
                    f"imbalance_factor must be >= 1, got {imbalance_factor}"
                )
            vp = np.asarray(vertex_partition, dtype=np.int64)
            if vp.shape != (num_vertices,):
                raise ValueError(
                    f"vertex_partition must map all {num_vertices} vertices"
                )
            if vp.size and vp.max() >= k:
                raise ValueError("vertex_partition ids out of range")
            # -1 marks vertices absent from this shard; streamed endpoints
            # must be mapped, checked per chunk (the stream arrives later)
            self._external = True
        self.k = k
        if initial_loads is None:
            seeded = np.zeros(k, dtype=np.int64)
        else:
            seeded = np.asarray(initial_loads, dtype=np.int64).copy()
            if seeded.shape != (k,):
                raise ValueError(f"initial_loads must have one entry per partition ({k})")
            if seeded.size and int(seeded.min()) < 0:
                raise ValueError("initial_loads must be non-negative")
        placed = int(seeded.sum())
        self.load_cap = max(1, math.ceil(imbalance_factor * num_edges / k))
        if load_caps is None:
            # Algorithm 1's uniform hard cap L_max
            if placed and k * self.load_cap < num_edges + placed:
                raise ValueError(
                    f"uniform cap {self.load_cap} x {k} cannot hold {num_edges} "
                    f"edges on top of {placed} already placed; pass load_caps"
                )
            self._caps = np.full(k, self.load_cap, dtype=np.int64)
        else:
            # per-partition quotas (the distributed merged mode's balance
            # quota exchange): the coordinator hands each node caps that
            # sum to the global L_max column-wise, so per-node enforcement
            # still bounds the *global* relative balance by tau
            caps = np.asarray(load_caps, dtype=np.int64)
            if caps.shape != (k,):
                raise ValueError(f"load_caps must have one entry per partition ({k})")
            if caps.size and int(caps.min()) < 0:
                raise ValueError("load_caps must be non-negative")
            if int(caps.sum()) < num_edges + placed:
                raise ValueError(
                    f"load_caps sum {int(caps.sum())} cannot hold {num_edges} edges"
                    + (f" on top of {placed} already placed" if placed else "")
                )
            self._caps = caps
            self.load_cap = int(caps.max()) if caps.size else self.load_cap
        self.stats = TransformStats(self.load_cap)
        self.loads = seeded
        self.spill_ptr = 0
        # contiguous bool/int64 tables: what the kernels consume (the
        # flags viewed as uint8)
        self._vp = np.ascontiguousarray(vp, dtype=np.int64)
        self._div = np.ascontiguousarray(clustering.divided, dtype=np.bool_)
        self._deg = np.ascontiguousarray(clustering.degree, dtype=np.int64)
        if self._div.shape != vp.shape or self._deg.shape != vp.shape:
            raise ValueError(f"clustering must cover all {num_vertices} vertices")

    def run(self, stream: EdgeStream, chunk_size: int, out: np.ndarray) -> None:
        """Pass 3 over ``stream``, read as chunks of ``chunk_size`` edges,
        into ``out`` (one int64 per stream edge): the one driver every
        whole-stream caller of this state shares."""
        for u, v, out_slice in stream.batches(chunk_size, out):
            self.ingest_pair(u, v, out=out_slice)

    def ingest_pair(
        self, u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Assign one chunk given as endpoint column arrays.

        Returns the chunk's partition ids — written into ``out`` when one
        is given (a contiguous int64 buffer of the chunk's length, e.g.
        the chunk's slice of a preallocated result), else a fresh array.
        An id outside ``[0, num_vertices)`` raises
        :class:`~repro.reliability.ingest.VertexRangeError` before any
        state changes.
        """
        # the kernels index raw int64 memory; free for int64 columns
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        check_edge_columns(u, v, self._vp.size)
        m = u.shape[0]
        if out is None:
            out = np.empty(m, dtype=np.int64)
        elif out.dtype != np.int64 or out.shape != (m,) or not out.flags.c_contiguous:
            raise ValueError(
                f"out must be a C-contiguous int64 array of the chunk's {m} "
                f"edges, got {out.dtype} with shape {out.shape}"
            )
        if m == 0:
            return out
        # the kernel runs the whole reference loop, spill branch included;
        # the spill pointer and rule counters round-trip through a small
        # int64 array, and an externally mapped -1 endpoint is refused
        # before any state changes (status 2)
        stats = self.stats
        counters = np.array(
            [self.spill_ptr, stats.agreement, stats.mirror_reuse,
             stats.degree_cut, stats.balance_spill],
            dtype=np.int64,
        )
        status = self._backend.transform_chunk(
            u, v, self.k, self._vp, self._div.view(np.uint8), self._deg,
            self.loads, self._caps, counters, self._external, out,
        )
        if status == 2:
            raise ValueError(
                "vertex_partition does not cover every streamed vertex "
                "(-1 entry gathered for a chunk endpoint)"
            )
        if status == 1:  # pragma: no cover - caps sum guarantees room
            raise RuntimeError("no underfull partition available")
        (
            self.spill_ptr, stats.agreement, stats.mirror_reuse,
            stats.degree_cut, stats.balance_spill,
        ) = counters.tolist()
        return out


def replay_transform_chunked(
    stream: EdgeStream,
    clustering: ClusteringResult,
    vertex_partition: np.ndarray,
    num_partitions: int,
    imbalance_factor: float = 1.0,
    load_caps: np.ndarray | None = None,
    chunk_size: int = 1 << 16,
) -> tuple[np.ndarray, TransformStats]:
    """Replay pass 3 under an externally supplied vertex->partition map.

    The single implementation behind the distributed merged mode's node
    replay — both the staged
    :meth:`~repro.core.partitioner.ClugpPartitioner.transform_with_mapping`
    API and the probe/commit stage workers call this, so the two paths
    cannot drift.  ``load_caps`` carries the coordinator's per-partition
    quotas (None = Algorithm 1's uniform cap).
    """
    state = TransformState(
        clustering,
        None,
        num_partitions,
        num_edges=stream.num_edges,
        num_vertices=stream.num_vertices,
        imbalance_factor=imbalance_factor,
        vertex_partition=vertex_partition,
        load_caps=load_caps,
    )
    out = np.empty(stream.num_edges, dtype=np.int64)
    state.run(stream, chunk_size, out)
    return out, state.stats
