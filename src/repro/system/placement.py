"""Master/mirror placement derived from a vertex-cut partitioning.

PowerGraph materializes a vertex replica in every partition that holds one
of its edges; one replica is the *master* (holds the authoritative value),
the rest are *mirrors*.  We pick the partition holding the most of the
vertex's edges as master (ties -> lowest partition id), which is what a
locality-aware PowerGraph build does.

The layout is one flat **replica-slot index** (:class:`LocalIndex`,
built by :func:`build_local_index`), the executable form the
partition-local runtime runs on.  Every (partition, vertex) replica is a
*slot*; slots are numbered partition by partition, vertices ascending
inside a partition, so a partition's local id space is one contiguous
slot range and ``local id = slot - part_indptr[pid]``.  The
partition-grouped edges carry slot endpoints — both inside the edge's
own partition's range, i.e. the layout is block-diagonal — and the
mirror<->master routing table (:class:`ReplicaRoutes`) is a pair of slot
columns.  A partition-local kernel therefore runs unchanged on the whole
concatenation at once (:attr:`LocalIndex.flat`, what
:class:`~repro.system.runtime.LocalGasRuntime` runs): DESIGN.md §5.3.

The index, its routes and its :class:`Placement` come out of one kernel
call (``repro.kernels`` ``slot_index``: on ``cc`` one walk over the
partition-grouped edges, O(|E| + slots), no sort; on ``python`` a sort
of the (vertex, partition) incidence).  It is the one derivation of a
placement: :func:`build_placement` is the index build's placement.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .. import kernels
from .._util import replica_routes, segment_sums
from ..partitioners.base import PartitionAssignment

__all__ = [
    "Placement",
    "build_placement",
    "LocalPartition",
    "ReplicaRoutes",
    "LocalIndex",
    "build_local_index",
]


@dataclass
class Placement:
    """The master/mirror layout implied by an edge partitioning.

    Attributes
    ----------
    master:
        Partition id of each vertex's master (-1 for edgeless vertices).
    replica_counts:
        ``|P(v)|`` per vertex.
    total_mirrors:
        ``sum_v (|P(v)| - 1)`` over hosted vertices: the replicas that
        are not their vertex's master.
    """

    master: np.ndarray
    replica_counts: np.ndarray
    total_mirrors: int


def build_placement(assignment: PartitionAssignment) -> Placement:
    """The master/mirror layout of an edge partitioning: each vertex's
    master is the partition holding the most of its incident edges, ties
    to the lowest partition id.  The placement a deployment's
    :func:`build_local_index` derives along with the slots."""
    return build_local_index(assignment).placement


# ---------------------------------------------------------------------- #
# the flat replica-slot index (the executable layout)
# ---------------------------------------------------------------------- #


@dataclass
class LocalPartition:
    """A contiguous block of replica slots and the edges among them.

    The runtime's block is the whole index (:attr:`LocalIndex.flat`);
    one partition's slot and edge ranges, rebased, are a block too (then
    ``pid`` is set).  Replicas get dense *local* ids
    ``0..num_vertices-1`` = slot minus the block's first slot, in
    ascending global-id order per partition; edges carry local endpoints
    plus their positions in the original stream (so per-edge attributes
    like SSSP weights can be sliced without a global array).

    Attributes
    ----------
    pid:
        Partition id of a one-partition block (else ``None``).
    slots, edges:
        The block's slot / grouped-edge ranges in the flat index: static
        per-slot or per-edge tables a program built over the flat index
        are sliced with these.
    vertices:
        Global ids of the replicas hosted here (local -> global).
    is_master:
        Per local vertex: this replica is its vertex's master.
    src_local, dst_local:
        The block's edges with local-id endpoints.
    edge_ids:
        Position of each local edge in the original stream.
    """

    pid: int | None
    slots: slice
    edges: slice
    vertices: np.ndarray
    is_master: np.ndarray
    src_local: np.ndarray
    dst_local: np.ndarray
    edge_ids: np.ndarray
    _undirected: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        return int(self.vertices.size)

    @property
    def num_edges(self) -> int:
        return int(self.src_local.size)

    def undirected(self) -> tuple[np.ndarray, np.ndarray]:
        """Static ``(targets, sources)`` incidences over both edge
        directions, built on first use where the block lives — so
        undirected gather kernels (connected components, label
        propagation) concatenate nothing per superstep."""
        if self._undirected is None:
            self._undirected = (
                np.concatenate([self.dst_local, self.src_local]),
                np.concatenate([self.src_local, self.dst_local]),
            )
        return self._undirected

    def to_local(self, global_ids) -> np.ndarray:
        """Map global vertex ids to one partition's local ids.

        Every id must be hosted here (``KeyError`` otherwise) — the local
        runtime never addresses a replica a partition does not hold.  A
        block of several partitions (``pid is None``, e.g.
        :attr:`LocalIndex.flat`) raises ``ValueError``: a vertex has one
        slot per partition hosting it, so there is no one local id.
        """
        if self.pid is None:
            raise ValueError(
                "to_local needs a one-partition block: in a block of several "
                "partitions a vertex has one slot per partition hosting it"
            )
        global_ids = np.asarray(global_ids, dtype=np.int64)
        local = np.searchsorted(self.vertices, global_ids)
        hosted = local < self.vertices.size
        hosted[hosted] = self.vertices[local[hosted]] == global_ids[hosted]
        if not hosted.all():
            raise KeyError(
                f"partition {self.pid} hosts no replica of vertices "
                f"{global_ids[~hosted][:5]}"
            )
        return local

    def to_global(self, local_ids) -> np.ndarray:
        """Map local ids back to global vertex ids."""
        return self.vertices[np.asarray(local_ids, dtype=np.int64)]


@dataclass
class ReplicaRoutes:
    """Flat mirror<->master routing table: one row per mirror replica.

    Rows are sorted by ``mirror_slot`` — by mirror partition, ties by
    global vertex id — so a superstep's message buffer is one boolean
    mask over these columns: the rows whose replica is in the sync set
    *are* the gather messages (mirror -> master) and, reversed, the apply
    broadcasts (master -> mirror).

    Attributes
    ----------
    mirror_slot, master_slot:
        The mirror replica's slot and its vertex's master slot.
    mirror_indptr:
        ``(k + 1,)`` — rows ``[mirror_indptr[p], mirror_indptr[p+1])``
        belong to mirror partition ``p``.
    """

    mirror_slot: np.ndarray
    master_slot: np.ndarray
    mirror_indptr: np.ndarray

    @property
    def num_mirrors(self) -> int:
        return int(self.mirror_slot.size)

    def select(self, active: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """``(mirror_slot, master_slot)`` of the rows whose replica is in
        the slot frontier ``active`` (``None``: every row)."""
        if active is None:
            return self.mirror_slot, self.master_slot
        rows = active[self.mirror_slot]
        return self.mirror_slot[rows], self.master_slot[rows]


@dataclass
class LocalIndex:
    """The full executable layout: the flat replica-slot index.

    Built once per deployment by :func:`build_local_index`.  The runtime
    holds one value per slot and exchanges accumulator / value messages
    along :class:`ReplicaRoutes`.

    Attributes
    ----------
    vertices, is_master:
        Per slot: the replica's global vertex id, and whether it is the
        master.  Slots are sorted by (partition, vertex).
    master_slots:
        The master replicas' slots, ascending (``flatnonzero(is_master)``).
    part_indptr:
        ``(k + 1,)`` — partition ``p`` owns slots
        ``[part_indptr[p], part_indptr[p+1])``.
    src_slot, dst_slot, edge_ids:
        The partition-grouped edges: endpoint slots (both inside the
        edge's partition's slot range) and stream positions.
    edge_indptr:
        ``(k + 1,)`` — partition ``p`` owns grouped edges
        ``[edge_indptr[p], edge_indptr[p+1])``.
    """

    num_partitions: int
    num_vertices: int
    vertices: np.ndarray
    is_master: np.ndarray
    master_slots: np.ndarray
    part_indptr: np.ndarray
    src_slot: np.ndarray
    dst_slot: np.ndarray
    edge_ids: np.ndarray
    edge_indptr: np.ndarray
    routes: ReplicaRoutes
    placement: Placement

    @cached_property
    def flat(self) -> LocalPartition:
        """The whole index as one block (zero-copy; local id = slot)."""
        return LocalPartition(
            pid=None,
            slots=slice(0, self.vertices.size),
            edges=slice(0, self.edge_ids.size),
            vertices=self.vertices,
            is_master=self.is_master,
            src_local=self.src_slot,
            dst_local=self.dst_slot,
            edge_ids=self.edge_ids,
        )

    def active_counts(self, active: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Per-partition ``(active edges, active masters)`` of a slot
        frontier (``None``: every slot) — the compute-cost operands.  An
        edge is active when either endpoint replica is."""
        if active is None:
            mirrors = np.diff(self.routes.mirror_indptr)
            return np.diff(self.edge_indptr), np.diff(self.part_indptr) - mirrors
        return (
            segment_sums(active[self.src_slot] | active[self.dst_slot], self.edge_indptr),
            segment_sums(self.is_master & active, self.part_indptr),
        )


def build_local_index(
    assignment: PartitionAssignment, placement: Placement | None = None
) -> LocalIndex:
    """Derive the flat replica-slot index — and, unless the caller passes
    one, its :class:`Placement` — from an assignment, in one
    ``slot_index`` kernel call (``repro.kernels``).  On ``cc`` that is a
    counting sort of the edges by partition, one bitmap per partition
    over its own vertex range read in ascending order (the slots),
    per-slot incidence counts read in pid order (the masters) and one
    pass over the slots (the routes) — O(|E| + slots) with no sort and no
    k x n term; on ``python`` the same arrays, dtype for dtype, from a
    sort of the (vertex, partition) incidence.

    A caller's ``placement`` decides ``is_master`` and the routes; one
    naming a master partition that hosts no replica of the vertex raises
    ``KeyError``.  A partition id outside ``[0, k)`` or an endpoint outside
    ``[0, n)`` raises ``IndexError`` naming the edge, before anything is
    built.
    """
    stream = assignment.stream
    k = assignment.num_partitions
    n = stream.num_vertices
    given = (stream.src, stream.dst, assignment.edge_partition)
    # the kernel indexes raw int64 memory; free for int64 columns
    columns = [np.ascontiguousarray(c, dtype=np.int64) for c in given]
    m = columns[0].size
    edge_ids, src_slot, dst_slot = (np.empty(m, dtype=np.int64) for _ in range(3))
    edge_indptr, part_indptr, mirror_indptr = (np.empty(k + 1, dtype=np.int64) for _ in range(3))
    master, replica_counts, slot_of = (np.empty(n, dtype=np.int64) for _ in range(3))
    vertices, master_slots, mirror_slot, master_slot = (
        _capacity(2 * m, np.int64) for _ in range(4)
    )
    is_master = _capacity(2 * m, np.bool_)
    sizes = np.empty(2, dtype=np.int64)
    row = kernels.get_backend().slot_index(
        *columns, n, k,
        edge_ids, edge_indptr, src_slot, dst_slot,
        vertices, part_indptr, master, replica_counts,
        is_master, master_slots, mirror_slot, master_slot, mirror_indptr,
        slot_of, np.empty((n + 63) // 64, dtype=np.uint64), sizes,
    )
    if row >= 0:
        raise _out_of_range(row, *given, n, k)
    slots, masters = (int(x) for x in sizes)
    rows = slots - masters
    vertices, is_master, master_slots = vertices[:slots], is_master[:slots], master_slots[:masters]
    routes = ReplicaRoutes(mirror_slot[:rows], master_slot[:rows], mirror_indptr)
    if placement is None:
        placement = Placement(master, replica_counts, rows)
    elif not np.array_equal(placement.master, master):
        is_master, master_slots, routes = _routes(vertices, part_indptr, placement.master)
    return LocalIndex(
        num_partitions=k,
        num_vertices=n,
        vertices=vertices,
        is_master=is_master,
        master_slots=master_slots,
        part_indptr=part_indptr,
        src_slot=src_slot,
        dst_slot=dst_slot,
        edge_ids=edge_ids,
        edge_indptr=edge_indptr,
        routes=routes,
        placement=placement,
    )


def _capacity(size: int, dtype) -> np.ndarray:
    """``size`` uninitialized entries of ``dtype`` over a mapping of their
    own: the pages a kernel never writes never become resident, and the
    rest go back to the system when the last view of them is freed (heap
    buffers of the 2|E| bound would keep every page ever written)."""
    return np.frombuffer(mmap.mmap(-1, max(size * np.dtype(dtype).itemsize, 1)), dtype, size)


def _out_of_range(row: int, src, dst, part, n: int, k: int) -> IndexError:
    return IndexError(
        f"edge {row}: partition {part[row]} with endpoints ({src[row]}, "
        f"{dst[row]}) is out of range for k={k} partitions of n={n} vertices"
    )


def _routes(
    vertices: np.ndarray, part_indptr: np.ndarray, master: np.ndarray
) -> tuple[np.ndarray, np.ndarray, ReplicaRoutes]:
    """``(is_master, master_slots, routes)`` of the slots under a
    placement's ``master`` column: every non-master slot paired with its
    vertex's master slot."""
    is_master, master_slots, *columns = replica_routes(vertices, part_indptr, master)
    routes = ReplicaRoutes(*columns)
    if routes.master_slot.size and routes.master_slot.min() < 0:
        raise KeyError("placement names a master partition that hosts no replica")
    return is_master, master_slots, routes
