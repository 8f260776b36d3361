"""The cluster multigraph: input of pass 2 (cluster partitioning).

After pass 1 every master vertex has a cluster; re-streaming the edges and
mapping endpoints through ``cluster_of`` yields a weighted digraph over
clusters:

* ``internal[c]`` = ``|c|`` = number of intra-cluster edges (paper notation
  ``|e(c_i, c_i)|``) — the *size* a cluster contributes to a partition;
* the weighted inter-cluster adjacency, in immutable CSR form (the
  DGL-style immutable graph index) — the cut volumes the game's
  edge-cutting term optimizes.

The adjacency is stored as two CSR triples over compact cluster ids:

* out-CSR (``indptr``, ``indices``, ``weights``) — edges leaving a cluster,
  neighbor ids sorted ascending within each row;
* in-CSR (``in_indptr``, ``in_indices``, ``in_weights``) — edges entering.

Every consumer reads these two as they are, int64 weights included;
there is no third, symmetrized copy and no ``(m, k)`` table.  The game
rebuilds a cluster's partition row by walking its out-row, then its
in-row (``w(c, n) = out + in`` is an integer sum, exact in any order).

Building it is one O(|E|) sweep (this is the I/O part of pass 2) in two
:mod:`repro.kernels` calls, each instantiated for an int32 and an int64
key column: ``pack_pairs`` gathers each stream chunk's endpoints through
``cluster_of`` and packs them as ``cu * m + cv`` into one preallocated
key column (int32 while ``m * m`` fits), refusing a label outside
``[0, m)``; after one in-place sort, ``group_keys`` writes ``internal``,
the out-CSR and the in-CSR in two counting passes over the runs.  The
only |E|-sized array is that key column: no run mask, no per-edge
Python, no dict-of-dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from .._util import row_pointers, run_starts, segment_sums, stable_argsort_bounded
from ..graph.stream import EdgeStream
from .clustering import ClusteringResult

__all__ = [
    "ClusterGraph",
    "ClusterGraphDelta",
    "build_cluster_graph",
    "cluster_graph_from_labels",
    "grouped_cluster_graph",
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


def _csr_rows(indptr: np.ndarray) -> np.ndarray:
    """COO row of every entry of a CSR with row pointers ``indptr``."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


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
    _cut_degrees: np.ndarray | None = field(default=None, repr=False, compare=False)
    _player_weights: np.ndarray | None = field(default=None, repr=False, compare=False)
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
        # appended row by row, columns sorted: already a row-major out-CSR
        rows_a = np.asarray(rows, dtype=np.int64)
        graph = cls.from_out_csr(
            np.asarray(internal, dtype=np.int64),
            row_pointers(rows_a, num_clusters),
            np.asarray(cols, dtype=np.int64),
            np.asarray(ws, dtype=np.int64),
            rows=rows_a,
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
            rows = _csr_rows(indptr)
        by_col = stable_argsort_bounded(indices, max(m, 1))
        return cls(
            num_clusters=m,
            internal=internal,
            indptr=indptr,
            indices=indices,
            weights=weights,
            in_indptr=row_pointers(indices, m),
            in_indices=rows[by_col],
            in_weights=weights[by_col],
        )

    @classmethod
    def merge(
        cls,
        graphs: list,
        relabels: list[np.ndarray],
        num_clusters: int | None = None,
    ) -> "ClusterGraph":
        """Union per-shard cluster graphs under a cluster-id relabeling.

        Only the out-CSR of each input is read: ``graphs[i]`` is anything
        carrying ``num_clusters``, ``internal``, ``indptr``, ``indices``
        and ``weights`` — a :class:`ClusterGraph`, or a node's shipped
        :class:`~repro.core.partitioner.GraphContribution` as it arrived.
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
                rows_parts.append(r[_csr_rows(g.indptr)])
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
            internal, row_pointers(urows, m), ucols, merged_w, rows=urows
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

    def player_weights(self) -> np.ndarray:
        """``max(2|c|, cut(c))`` per cluster: its weight in pass 2's game.

        Pass 3 places a cluster's internal edges and, by the degree rule,
        part of its cut edges on the cluster's partition, so a cluster
        weighs at least its cut degree there even with ``|c| = 0``.  Where
        ``2|c| >= cut(c)`` for every cluster the weights are ``2 * internal``
        and the game is Equation 11's, scaled by a power of two (exact in
        floating point; DESIGN.md §1).  One int64 array, cached.
        """
        if self._player_weights is None:
            self._player_weights = np.maximum(2 * self.internal, self.cut_degrees())
        return self._player_weights

    def cut_degree(self, c: int) -> int:
        """Total cut weight incident to cluster ``c``."""
        return int(self.cut_degrees()[c])

    def out_rows(self) -> np.ndarray:
        """Row (source-cluster) id of every out-CSR entry; cached COO view."""
        if self._out_rows is None:
            self._out_rows = _csr_rows(self.indptr)
        return self._out_rows

    def edge_count_check(self, num_stream_edges: int, num_self_loops: int = 0) -> bool:
        """Invariant: internal + inter accounts for every edge exactly, and
        the internal count covers the stream's ``num_self_loops`` vertex
        self-loops (a self-loop is an intra-cluster edge)."""
        internal = self.total_internal()
        return internal + self.total_cut() == num_stream_edges and internal >= num_self_loops


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
        internal, row_pointers(rows, m), cols, counts, rows=rows
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


#: edges per ``pack_pairs`` call: the compiled kernel holds nothing per
#: chunk, the python one the chunk's two gathered label columns
_GROUP_CHUNK = 1 << 14


def grouped_cluster_graph(
    stream: EdgeStream, label_of: np.ndarray, num_clusters: int
) -> ClusterGraph:
    """The :class:`ClusterGraph` of ``stream`` under the vertex -> cluster
    map ``label_of``; a label outside ``[0, num_clusters)`` is refused.

    The grouping core shared by :func:`build_cluster_graph` (labels of a
    clustering) and the distributed round 2 (a shard's edges under the
    resolved global labels).  ``pack_pairs`` packs each
    ``stream.batches`` chunk's label pairs as ``cu * m + cv`` into one
    preallocated key column — int32 while ``m * m`` fits, so 4 bytes per
    edge — diagonal keys included, so nothing is masked per edge.  After
    one in-place sort, ``group_keys`` counts the runs into ``internal``
    and the two row-pointer arrays, which sizes the pair arrays, then
    fills the out-CSR and the in-CSR: the key column is the only per-edge
    array.
    """
    m = int(num_clusters)
    label_of = np.ascontiguousarray(label_of, dtype=np.int64)
    width = "i32" if m * m <= np.iinfo(np.int32).max else "i64"
    backend = kernels.get_backend()
    pack = getattr(backend, f"pack_pairs_{width}")
    group = getattr(backend, f"group_keys_{width}")
    keys = np.empty(stream.num_edges, dtype=np.int32 if width == "i32" else np.int64)
    start = 0
    for u, v in stream.batches(_GROUP_CHUNK):
        stop = start + u.shape[0]
        row = pack(u, v, label_of, m, keys[start:stop])
        if row >= 0:
            raise ValueError(
                f"edge {start + row}: an endpoint without a cluster in "
                f"[0, {m}) (stream contains vertices absent from the clustering)"
            )
        start = stop
    keys.sort()
    internal = np.empty(m, dtype=np.int64)
    indptr = np.empty(m + 1, dtype=np.int64)
    in_indptr = np.empty(m + 1, dtype=np.int64)
    pair_arrays = [np.empty(0, dtype=np.int64)] * 4
    heads = (keys, m, internal, indptr, in_indptr)
    pairs = filled = group(*heads, *pair_arrays)  # the count: sizes the pair arrays
    if pairs > 0:
        pair_arrays = [np.empty(pairs, dtype=np.int64) for _ in range(4)]
        filled = group(*heads, *pair_arrays)  # the fill
    if pairs < 0 or filled != pairs:
        # pack_pairs and the sort guarantee neither; the kernel reports both
        raise RuntimeError(
            f"group_keys_{width} refused the sorted key column: "
            f"{pairs} pairs counted, {filled} filled"
        )
    indices, weights, in_indices, in_weights = pair_arrays
    return ClusterGraph(
        m, internal, indptr, indices, weights, in_indptr, in_indices, in_weights
    )


def cluster_graph_from_labels(
    cu: np.ndarray, cv: np.ndarray, num_clusters: int
) -> ClusterGraph:
    """Accumulate a :class:`ClusterGraph` from per-edge cluster-label pairs.

    ``cu[i]``/``cv[i]`` are the (already gathered) endpoint clusters of the
    i-th edge, each in ``[0, num_clusters)``: the label columns are a
    stream over the cluster ids, grouped under the identity map.
    """
    m = int(num_clusters)
    return grouped_cluster_graph(
        EdgeStream(cu, cv, num_vertices=m), np.arange(m, dtype=np.int64), m
    )


def build_cluster_graph(stream: EdgeStream, clustering: ClusteringResult) -> ClusterGraph:
    """Map every stream edge through ``cluster_of`` and accumulate weights.

    Self-cluster edges (including vertex self-loops) count as internal.
    One chunked O(|E|) sweep (:func:`grouped_cluster_graph`).
    """
    return grouped_cluster_graph(stream, clustering.cluster_of, clustering.num_clusters)
