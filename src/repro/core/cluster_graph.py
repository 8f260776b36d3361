"""The cluster multigraph: input of pass 2 (cluster partitioning).

After pass 1 every master vertex has a cluster; re-streaming the edges and
mapping endpoints through ``cluster_of`` yields a weighted digraph over
clusters:

* ``internal[c]`` = ``|c|`` = number of intra-cluster edges (paper notation
  ``|e(c_i, c_i)|``) — the *size* a cluster contributes to a partition;
* ``indptr/indices/weights`` = the weighted inter-cluster adjacency in
  immutable CSR form (the DGL-style immutable graph index) — the cut
  volumes the game's edge-cutting term optimizes.

The graph is stored as three CSR triples over compact cluster ids:

* out-CSR (``indptr``, ``indices``, ``weights``) — edges leaving a cluster,
  neighbor ids sorted ascending within each row;
* in-CSR (``in_indptr``, ``in_indices``, ``in_weights``) — edges entering;
* a lazily-built symmetrized CSR (:meth:`sym`) with merged weights
  ``w(c, n) = out + in``, which is what the game's best-response scoring
  slices per cluster.

Building it is one O(|E|) vectorized sweep (this is the I/O part of
pass 2): endpoints are gathered through ``cluster_of``, the
``(cluster_u, cluster_v)`` keys are grouped by one bincount or one sort,
and run-length encoding yields the CSR arrays directly — no per-edge
Python, no dict-of-dicts.

:meth:`undirected_neighbors` / :meth:`out_dict` / :meth:`in_dict` remain
as dict-shaped compatibility shims for diagnostic code and tests; the hot
paths (game scoring, partition-cut sums) consume the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import run_starts, segment_sums, stable_argsort_bounded
from ..graph.stream import EdgeStream
from .clustering import ClusteringResult

__all__ = [
    "ClusterGraph",
    "ClusterGraphDelta",
    "build_cluster_graph",
    "cluster_graph_from_labels",
]


def _radix_group(
    keys: np.ndarray, upper: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radix-sort bounded integer keys and run-length-encode the result.

    Returns ``(order, unique_keys, starts)``: ``keys[order]`` is sorted and
    ``starts`` marks the first position of each distinct key in it.  The
    shared group-by step behind the CSR builders.
    """
    order = stable_argsort_bounded(keys, upper)
    skeys = keys[order]
    starts = run_starts(skeys)
    return order, skeys[starts], starts


def _row_pointers(ids: np.ndarray, m: int) -> np.ndarray:
    """CSR ``indptr`` over ``m`` rows from the (grouped) row id of every entry."""
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=m), out=indptr[1:])
    return indptr


def _csr_from_pairs(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR triple from (row, col, weight) pairs already unique per (row, col).

    Pairs are radix-grouped by row then column, so ``indices`` come out
    sorted ascending within each row.
    """
    order = stable_argsort_bounded(rows * np.int64(m) + cols, m * m if m else 1)
    return _row_pointers(rows, m), cols[order], weights[order]


@dataclass
class ClusterGraph:
    """Weighted digraph over clusters, CSR-backed.

    Attributes
    ----------
    num_clusters:
        ``m``.
    internal:
        ``internal[c]`` — intra-cluster edge count ``|c|``.
    indptr / indices / weights:
        Out-direction CSR: the inter-cluster edges leaving cluster ``c``
        are ``indices[indptr[c]:indptr[c+1]]`` with integer weights
        ``weights[indptr[c]:indptr[c+1]]``; neighbor ids sorted ascending.
    in_indptr / in_indices / in_weights:
        Same layout for edges entering each cluster.
    """

    num_clusters: int
    internal: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    in_weights: np.ndarray
    _sym: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    _cut_degrees: np.ndarray | None = field(default=None, repr=False, compare=False)
    _out_rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dicts(
        cls,
        num_clusters: int,
        internal: np.ndarray,
        out_edges: list[dict[int, int]],
        in_edges: list[dict[int, int]],
    ) -> "ClusterGraph":
        """Build from per-cluster neighbor dicts (tests, handmade fixtures)."""
        rows, cols, ws = [], [], []
        for c, nbrs in enumerate(out_edges):
            for nbr, w in sorted(nbrs.items()):
                rows.append(c)
                cols.append(nbr)
                ws.append(w)
        rows_a = np.asarray(rows, dtype=np.int64)
        cols_a = np.asarray(cols, dtype=np.int64)
        ws_a = np.asarray(ws, dtype=np.int64)
        indptr, indices, weights = _csr_from_pairs(rows_a, cols_a, ws_a, num_clusters)
        in_indptr, in_indices, in_weights = _csr_from_pairs(
            cols_a, rows_a, ws_a, num_clusters
        )
        graph = cls(
            num_clusters=num_clusters,
            internal=np.asarray(internal, dtype=np.int64),
            indptr=indptr,
            indices=indices,
            weights=weights,
            in_indptr=in_indptr,
            in_indices=in_indices,
            in_weights=in_weights,
        )
        # in_edges is accepted for interface symmetry; it must be the exact
        # transpose of out_edges (every builder in the repo guarantees this)
        if in_edges is not None:
            expected: list[dict[int, int]] = [dict() for _ in range(num_clusters)]
            for c, nbrs in enumerate(out_edges):
                for nbr, w in nbrs.items():
                    expected[nbr][c] = w
            if [dict(d) for d in in_edges] != expected:
                raise ValueError("in_edges does not mirror out_edges")
        return graph

    @classmethod
    def from_out_csr(
        cls,
        internal: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> "ClusterGraph":
        """Complete a canonical out-CSR with its transpose.

        The in-CSR is one stable regrouping by column: rows stay ascending
        within a column because they were ascending to begin with.  This is
        how the builders finish, and how the coordinator rebuilds a graph a
        node shipped as its out-CSR only (the in-CSR never crosses the wire).
        ``rows`` is the COO row of every entry, for callers that hold it.
        """
        m = int(internal.size)
        if rows is None:
            rows = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))
        by_col = stable_argsort_bounded(indices, max(m, 1))
        return cls(
            num_clusters=m,
            internal=internal,
            indptr=indptr,
            indices=indices,
            weights=weights,
            in_indptr=_row_pointers(indices, m),
            in_indices=rows[by_col],
            in_weights=weights[by_col],
        )

    @classmethod
    def merge(
        cls,
        graphs: list["ClusterGraph"],
        relabels: list[np.ndarray],
        num_clusters: int | None = None,
    ) -> "ClusterGraph":
        """Union per-shard cluster graphs under a cluster-id relabeling.

        ``relabels[i]`` maps graph ``i``'s local cluster ids onto the
        merged id space: ``relabels[i][c]`` is the global id of local
        cluster ``c``.  The map must be total (one entry per local
        cluster, all entries in ``[0, num_clusters)``); it need *not* be
        injective — several local clusters may land on the same global
        id, in which case their internal volumes and edge weights are
        summed, and inter-cluster edges whose endpoints collapse onto one
        global cluster fold into that cluster's ``internal`` count.

        This is the coordinator half of the distributed merge protocol
        (Section III-C): each node ships its shard-local graph, the
        coordinator relabels the COO triples, radix-groups the combined
        pairs with :func:`repro._util.stable_argsort_bounded`, and
        run-length-sums duplicate pairs into one canonical CSR.  Merging
        a single graph through the identity relabel reproduces its CSR
        arrays bit-for-bit, which is what makes ``num_nodes=1`` merged
        mode identical to the single-machine pipeline.

        Total weight is conserved: ``total_internal() + total_cut()`` of
        the result equals the sum over the inputs.
        """
        if len(graphs) != len(relabels):
            raise ValueError(
                f"got {len(graphs)} graphs but {len(relabels)} relabel maps"
            )
        maps = [np.asarray(r, dtype=np.int64) for r in relabels]
        for g, r in zip(graphs, maps):
            if r.shape != (g.num_clusters,):
                raise ValueError(
                    f"relabel must map all {g.num_clusters} clusters, "
                    f"got shape {r.shape}"
                )
        if num_clusters is None:
            num_clusters = int(max((int(r.max()) + 1 for r in maps if r.size), default=0))
        m = int(num_clusters)
        for r in maps:
            if r.size and (int(r.min()) < 0 or int(r.max()) >= m):
                raise ValueError(f"relabel ids out of range [0, {m})")
        internal = np.zeros(m, dtype=np.int64)
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        ws_parts: list[np.ndarray] = []
        for g, r in zip(graphs, maps):
            np.add.at(internal, r, g.internal)
            if g.indices.size:
                rows_parts.append(r[g.out_rows()])
                cols_parts.append(r[g.indices])
                ws_parts.append(g.weights)
        if rows_parts:
            rows = np.concatenate(rows_parts)
            cols = np.concatenate(cols_parts)
            ws = np.concatenate(ws_parts)
            # non-injective relabels can collapse an inter-cluster edge
            # onto a single global cluster: that weight becomes internal
            same = rows == cols
            if same.any():
                np.add.at(internal, rows[same], ws[same])
                rows, cols, ws = rows[~same], cols[~same], ws[~same]
        else:
            rows = cols = ws = np.empty(0, dtype=np.int64)
        if rows.size:
            order, ukeys, starts = _radix_group(rows * np.int64(m) + cols, m * m)
            merged_w = np.add.reduceat(ws[order], starts)
            urows = ukeys // m
            ucols = ukeys % m
        else:
            urows = ucols = merged_w = np.empty(0, dtype=np.int64)
        # grouped keys are unique and row-major: already the out-CSR
        return cls.from_out_csr(
            internal, _row_pointers(urows, m), ucols, merged_w, rows=urows
        )

    # ------------------------------------------------------------------ #
    # scalar accounting
    # ------------------------------------------------------------------ #

    def total_internal(self) -> int:
        """Sum of intra-cluster edges."""
        return int(self.internal.sum())

    def total_cut(self) -> int:
        """``sum_c |e(c, V\\c)|`` — total inter-cluster edges (each once)."""
        return int(self.weights.sum())

    def cut_degrees(self) -> np.ndarray:
        """``|e(c, V\\c)| + |e(V\\c, c)|`` per cluster, as one int64 array."""
        if self._cut_degrees is None:
            self._cut_degrees = segment_sums(self.weights, self.indptr) + segment_sums(
                self.in_weights, self.in_indptr
            )
        return self._cut_degrees

    def cut_degree(self, c: int) -> int:
        """Total cut weight incident to cluster ``c``."""
        return int(self.cut_degrees()[c])

    def out_rows(self) -> np.ndarray:
        """Row (source-cluster) id of every out-CSR entry; cached COO view."""
        if self._out_rows is None:
            self._out_rows = np.repeat(
                np.arange(self.num_clusters, dtype=np.int64), np.diff(self.indptr)
            )
        return self._out_rows

    # ------------------------------------------------------------------ #
    # symmetrized adjacency (the game's view)
    # ------------------------------------------------------------------ #

    def sym(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Symmetrized CSR ``(indptr, indices, weights)`` with merged
        weights ``w(c, n) = out + in``; built lazily, cached.

        Both CSRs are row-major with ascending neighbor ids, so their
        ``row * m + col`` keys are two ascending runs: one stable sort of
        the concatenation is a single merge of the two, and a pair held in
        both directions ends up adjacent (out first) for the run-length sum.
        """
        if self._sym is None:
            m = self.num_clusters
            span = np.int64(m)
            in_rows = np.repeat(np.arange(m, dtype=np.int64), np.diff(self.in_indptr))
            keys = np.concatenate(
                [self.out_rows() * span + self.indices, in_rows * span + self.in_indices]
            )
            if keys.size == 0:
                empty = np.empty(0, dtype=np.int64)
                self._sym = (np.zeros(m + 1, dtype=np.int64), empty, empty)
            else:
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                starts = run_starts(keys)
                ws = np.concatenate([self.weights, self.in_weights])
                merged = np.add.reduceat(ws[order], starts)
                ukeys = keys[starts]
                urows = ukeys // span
                ucols = ukeys - urows * span  # a second division costs 3x this
                self._sym = (
                    _row_pointers(urows, m), ucols, merged.astype(np.int64, copy=False)
                )
        return self._sym

    def edge_count_check(self, num_stream_edges: int, num_self_loops: int = 0) -> bool:
        """Invariant: internal + inter + self-loops accounts for every edge."""
        return (
            self.total_internal() + self.total_cut() == num_stream_edges
        ) or num_self_loops > 0


def _graph_from_grouped(
    rows: np.ndarray, cols: np.ndarray, counts: np.ndarray, m: int
) -> "ClusterGraph":
    """:class:`ClusterGraph` from unique ``(row, col) -> count`` pairs in
    row-major order, same-cluster pairs included.

    Diagonal pairs are the same-cluster (internal) counts; the rest are
    unique and ascending, i.e. already the out-CSR as is.
    """
    internal = np.zeros(m, dtype=np.int64)
    diag = rows == cols
    internal[rows[diag]] = counts[diag]
    rows, cols, counts = rows[~diag], cols[~diag], counts[~diag]
    return ClusterGraph.from_out_csr(
        internal, _row_pointers(rows, m), cols, counts, rows=rows
    )


#: two raw cluster ids (each below 2**31) pack into one sortable int64 key
_RAW_BITS = 32
_RAW_MASK = (1 << _RAW_BITS) - 1


def _pack_raw(raw_u: np.ndarray, raw_v: np.ndarray) -> np.ndarray:
    return (np.asarray(raw_u, dtype=np.int64) << _RAW_BITS) | raw_v


@dataclass(frozen=True)
class ClusterGraphDelta:
    """The mutable layer under the immutable :class:`ClusterGraph`.

    A consumer that keeps one clustering alive across many batches (the
    incremental service) cannot afford :func:`build_cluster_graph` over
    everything it has ever ingested.  This layer holds the same multiset
    of per-edge label pairs, but keyed by *raw* cluster ids — which are
    stable for the lifetime of a :class:`~repro.core.clustering.
    ClusteringState` — as one sorted COO: ``keys[i]`` packs
    ``(raw_u, raw_v)`` and ``weights[i] > 0`` counts the edges carrying
    that pair (``raw_u == raw_v`` entries are the internal counts).

    Invariant: the layer equals the grouped label pairs of every edge
    under the *current* raw labelling.  :meth:`updated` moves it forward
    by what changed — new edges added under their labels, edges whose
    endpoint changed cluster removed under the old pair and re-added
    under the new one — in O(changes + nnz).  Because compaction
    renumbers surviving raw ids order-preservingly, :meth:`freeze` maps
    the sorted keys straight onto a row-major compact CSR: the result is
    array for array what :func:`build_cluster_graph` returns.

    Instances are immutable; :meth:`updated` returns a new layer, so a
    caller can compute a batch on the side and adopt it only on success.
    """

    keys: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_graph(cls, graph: ClusterGraph, raw_ids: np.ndarray) -> "ClusterGraphDelta":
        """The layer holding ``graph``, whose compact cluster ``c`` has raw
        id ``raw_ids[c]`` (ascending, as ``ClusteringResult.raw_ids`` is)."""
        raw_ids = np.asarray(raw_ids, dtype=np.int64)
        inner = np.flatnonzero(graph.internal)
        keys = np.concatenate([
            _pack_raw(raw_ids[graph.out_rows()], raw_ids[graph.indices]),
            _pack_raw(raw_ids[inner], raw_ids[inner]),
        ])
        weights = np.concatenate([graph.weights, graph.internal[inner]])
        order = np.argsort(keys)
        return cls(keys[order], weights[order])

    def updated(
        self,
        add_u: np.ndarray,
        add_v: np.ndarray,
        sub_u: np.ndarray,
        sub_v: np.ndarray,
    ) -> "ClusterGraphDelta":
        """The layer after adding one edge per ``(add_u[i], add_v[i])`` raw
        label pair and removing one per ``(sub_u[i], sub_v[i])``."""
        changes = np.concatenate([_pack_raw(add_u, add_v), _pack_raw(sub_u, sub_v)])
        if changes.size == 0:
            return self
        sign = np.ones(changes.size, dtype=np.int64)
        sign[len(add_u):] = -1
        order = np.argsort(changes)
        changes = changes[order]
        starts = run_starts(changes)
        ukeys = changes[starts]
        change = np.add.reduceat(sign[order], starts)
        pos = np.searchsorted(self.keys, ukeys)
        held = pos < self.keys.size
        held[held] = self.keys[pos[held]] == ukeys[held]
        weights = self.weights.copy()
        weights[pos[held]] += change[held]
        fresh = ~held & (change != 0)
        keys = np.insert(self.keys, pos[fresh], ukeys[fresh])
        weights = np.insert(weights, pos[fresh], change[fresh])
        if weights.size and int(weights.min()) < 0:
            raise ValueError("removed a label pair the layer does not hold")
        live = weights != 0
        return ClusterGraphDelta(keys[live], weights[live])

    def freeze(self, raw_ids: np.ndarray) -> ClusterGraph:
        """The immutable graph over the compact ids ``0..len(raw_ids)-1`` of
        the surviving raw clusters ``raw_ids`` (ascending)."""
        m = int(raw_ids.size)
        # raw -> compact table, deliberately uninitialized: only surviving
        # ids are written and (by the layer's invariant) only they are
        # read, so the cost is O(m + nnz) however many raw ids have died
        compact = np.empty(int(raw_ids[-1]) + 1 if m else 0, dtype=np.int64)
        compact[raw_ids] = np.arange(m, dtype=np.int64)
        rows = compact[self.keys >> _RAW_BITS]
        cols = compact[self.keys & _RAW_MASK]
        return _graph_from_grouped(rows, cols, self.weights, m)


def cluster_graph_from_labels(
    cu: np.ndarray, cv: np.ndarray, num_clusters: int
) -> ClusterGraph:
    """Accumulate a :class:`ClusterGraph` from per-edge cluster-label pairs.

    ``cu[i]``/``cv[i]`` are the (already gathered) endpoint clusters of the
    i-th edge.  All ``cu * m + cv`` keys are grouped in one pass (dense
    bincount or sort + run-length encode); same-cluster keys count as
    internal, the rest become the CSR triples.  This is the grouping
    core shared by :func:`build_cluster_graph` (labels gathered through
    a clustering) and the distributed coordinator (labels of cross-shard
    edges resolved from the merged vertex->cluster map).
    """
    m = int(num_clusters)
    cu = np.asarray(cu, dtype=np.int64)
    cv = np.asarray(cv, dtype=np.int64)
    ukeys = counts = np.empty(0, dtype=np.int64)
    cells = m * m
    if m and cu.size and cells <= max(1 << 20, 2 * cu.size):
        # dense group-by: one bincount over the whole (u, v) key space
        # beats sorting the keys when the space is small relative to the
        # edge count; flatnonzero yields the unique keys ascending
        key_counts = np.bincount(cu * np.int64(m) + cv, minlength=cells)
        ukeys = np.flatnonzero(key_counts)
        counts = key_counts[ukeys]
    elif m and cu.size:
        # sparse group-by: one sort of every key (the permutation is never
        # needed; 32-bit keys sort ~2x faster), then run-length encode
        keys = cu * np.int64(m) + cv
        if cells <= np.iinfo(np.int32).max:
            keys = keys.astype(np.int32)
        keys.sort()
        starts = run_starts(keys)
        ukeys = keys[starts].astype(np.int64)
        counts = np.diff(starts, append=keys.size)
    rows, cols = np.divmod(ukeys, max(m, 1))
    return _graph_from_grouped(rows, cols, counts, m)


def build_cluster_graph(stream: EdgeStream, clustering: ClusteringResult) -> ClusterGraph:
    """Map every stream edge through ``cluster_of`` and accumulate weights.

    Self-cluster edges (including vertex self-loops) count as internal.
    One vectorized O(|E|) sweep: gather, radix group-by, run-length encode.
    """
    m = clustering.num_clusters
    cu_arr = clustering.cluster_of[stream.src]
    cv_arr = clustering.cluster_of[stream.dst]
    if m and ((cu_arr < 0).any() or (cv_arr < 0).any()):
        raise ValueError("stream contains vertices absent from the clustering")
    return cluster_graph_from_labels(cu_arr, cv_arr, m)
