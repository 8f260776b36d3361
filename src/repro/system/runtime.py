"""The partition-local GAS runtime: executable master/mirror dataflow.

The runtime holds **no global compute state**: values live per replica
*slot* of the flat index
(:class:`~repro.system.placement.LocalIndex`), and replicas synchronize
exclusively through explicit typed message payloads
(:mod:`repro.system.messages`) along the mirror table's rows.

The superstep is one loop, :meth:`LocalGasRuntime.run`, over the whole
flat index at once — every partition's local kernel concatenated, which
the block-diagonal layout makes exact.  With a dense accumulator each of
a superstep's three index-table walks (the gather along the edges, both
syncs along the routes) is one fused take-and-combine pass
(:meth:`DenseAccumulator.fold`, :func:`take_put`).

One BSP superstep over the sync-active set ``A`` (every vertex at step
0, then the scatter-activated frontier), DESIGN.md section 5.1: local
gather; gather sync, one message per mirror of each ``v in A``; apply at
the active masters (and at edgeless vertices no partition hosts); apply
sync, one message back per mirror; message-free scatter, OR-reduced into
the next ``A``.  The measured message count is the paper's
``2 * sum(|P(v)| - 1)`` over ``A`` on every superstep, and the measured
bytes are the exchanged rows' (a vertex header plus the payload), priced
by :meth:`NetworkModel.comm_seconds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from .. import kernels
from .._util import ragged_take_indices
from ..partitioners.base import PartitionAssignment
from .messages import VERTEX_HEADER_BYTES, DensePayload, RaggedPayload
from .network import NetworkModel
from .placement import LocalIndex, LocalPartition, build_local_index

__all__ = [
    "DenseAccumulator",
    "LabelCountAccumulator",
    "LABEL_COUNT",
    "LocalContext",
    "LocalVertexProgram",
    "LocalGasRuntime",
    "RunCost",
    "SuperstepCost",
    "group_label_counts",
    "take_put",
]


@dataclass(frozen=True)
class SuperstepCost:
    """Cost accounting of one superstep."""

    superstep: int
    active_vertices: int
    active_edges: int
    messages: int
    bytes: int
    compute_seconds: float
    comm_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds

    def to_dict(self) -> dict:
        return {
            "superstep": self.superstep,
            "active_vertices": self.active_vertices,
            "active_edges": self.active_edges,
            "messages": self.messages,
            "bytes": self.bytes,
            "compute_seconds": self.compute_seconds,
            "comm_seconds": self.comm_seconds,
            "total_seconds": self.total_seconds,
        }


@dataclass
class RunCost:
    """Aggregate cost of a vertex-program run."""

    supersteps: list[SuperstepCost] = field(default_factory=list)

    def add(self, cost: SuperstepCost) -> None:
        self.supersteps.append(cost)

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def total_messages(self) -> int:
        return sum(s.messages for s in self.supersteps)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.supersteps)

    @property
    def compute_seconds(self) -> float:
        return sum(s.compute_seconds for s in self.supersteps)

    @property
    def comm_seconds(self) -> float:
        return sum(s.comm_seconds for s in self.supersteps)

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds

    def to_dict(self, per_superstep: bool = False) -> dict:
        """JSON-ready aggregate (for the ``run_all.py --json`` payload)."""
        out = {
            "supersteps": self.num_supersteps,
            "messages": self.total_messages,
            "bytes": self.total_bytes,
            "compute_seconds": self.compute_seconds,
            "comm_seconds": self.comm_seconds,
            "total_seconds": self.total_seconds,
        }
        if per_superstep:
            out["per_superstep"] = [s.to_dict() for s in self.supersteps]
        return out

    def summary(self) -> str:
        """One-line human-readable digest of the run."""
        return (
            f"supersteps={self.num_supersteps} messages={self.total_messages} "
            f"volume={self.total_bytes / 1e6:.2f}MB "
            f"compute={self.compute_seconds:.4f}s comm={self.comm_seconds:.4f}s "
            f"total={self.total_seconds:.4f}s"
        )


def group_label_counts(
    targets: np.ndarray,
    labels: np.ndarray,
    n_labels: int,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact (target, label) histogram as key-sorted COO triples.

    With ``counts=None`` each row counts as one occurrence (the local
    gather over raw incidences); with an int64 ``counts`` array the
    pre-counted histograms are summed (the master-side merge).  Both
    sides of the label-count accumulator share this one key encoding,
    so mirror partials and master merges cannot drift apart.
    """
    key = targets * n_labels + labels
    if counts is None:
        uniq, summed = np.unique(key, return_counts=True)
        summed = summed.astype(np.int64)
    else:
        uniq, inverse = np.unique(key, return_inverse=True)
        summed = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(summed, inverse, counts)
    return uniq // n_labels, uniq % n_labels, summed


_INT64 = np.dtype(np.int64)

#: (combine, dtype) -> the fused take-and-combine kernel that folds it
_FOLD_KERNELS = {
    (np.add, np.dtype(np.float64)): "take_add_f64",
    (np.minimum, np.dtype(np.float64)): "take_min_f64",
    (np.minimum, _INT64): "take_min_i64",
}


def _take_walk(kernel: str, dtype: np.dtype, out, dst, table, src) -> bool:
    """One walk of the index table ``(dst, src)`` by the take kernel
    named ``kernel``, when it can run: every argument is exactly what the
    kernel indexes.  False means nothing was touched and the caller runs
    the numpy form.

    The one place the system layer asks for a backend — per call, never
    stored: the accumulators are class attributes built at import, before
    a caller picks a tier (``CLUGP_KERNEL_BACKEND``), and a backend holds
    ctypes function pointers, which would make a program unpicklable.
    """
    if not (
        kernels.indexable(out, dtype) and kernels.indexable(table, dtype)
        and kernels.indexable(dst, _INT64) and kernels.indexable(src, _INT64)
    ):
        return False
    getattr(kernels.get_backend(), kernel)(dst, src, table, out)
    return True


def take_put(out: np.ndarray, dst, table: np.ndarray, src) -> None:
    """``out[dst] = table[src]`` without the ``table[src]`` temporary
    (a bit copy of 8-byte numbers through the take kernel).

    ``out`` may be ``table`` when the ``dst`` and ``src`` index sets are
    disjoint — the apply sync's case: mirrors receive, masters send.
    """
    dtype = out.dtype
    if (
        dtype.kind in "iuf" and dtype.itemsize == 8 and table.dtype == dtype
        and _take_walk("take_put_i64", _INT64, out.view(_INT64), dst, table.view(_INT64), src)
    ):
        return
    out[dst] = table[src]


@dataclass(frozen=True)
class DenseAccumulator:
    """Fixed-width gather accumulator: one value per vertex.

    ``combine`` must be an associative, commutative ufunc with
    ``identity`` as its neutral element (``np.add`` with 0, ``np.minimum``
    with inf/intmax) — mirrors may merge in any order.
    """

    dtype: np.dtype
    identity: object
    combine: np.ufunc

    def empty(self, n: int) -> np.ndarray:
        return np.full(n, self.identity, dtype=self.dtype)

    def fold(self, out: np.ndarray, dst, table: np.ndarray, src) -> None:
        """``out[dst[i]] = combine(out[dst[i]], table[src[i]])`` for ``i``
        ascending: ``combine.at(out, dst, table[src])``, same fold order
        and so the same bits, without materializing ``table[src]`` when
        :mod:`repro.kernels` has the (combine, dtype) pair and the
        arguments are flat int64-indexed arrays — and literally that
        numpy expression otherwise (any ufunc, any dtype).

        ``out`` may be ``table`` when the ``dst`` and ``src`` index sets
        are disjoint.  Indices are checked either way (``IndexError``);
        the kernel also refuses the negative ones numpy would wrap, and
        has applied the rows before the bad one when it raises.
        """
        dtype = np.dtype(self.dtype)
        kernel = _FOLD_KERNELS.get((self.combine, dtype))
        if kernel is None or not _take_walk(kernel, dtype, out, dst, table, src):
            self.combine.at(out, dst, table[src])


class LabelCountAccumulator:
    """Ragged gather accumulator: per-vertex (label, count) histograms.

    Partials are COO triples ``(target_local, label, count)`` sorted by
    (target, label); merging concatenates and re-groups with exact
    integer sums, so the result is order-independent.
    """


#: the shared label-histogram accumulator spec (stateless)
LABEL_COUNT = LabelCountAccumulator()


@dataclass
class LocalContext:
    """What a vertex program sees in the local gather: local state only.

    Attributes
    ----------
    part:
        The local index space and edge sub-graph: the whole flat index as
        one block (:attr:`LocalIndex.flat`, local id = slot).
    values:
        Current values of the replicas, indexed by slot (mirrors hold the
        last value their master broadcast).
    active:
        Sync-active frontier over the slots; ``None`` when every replica
        is active (the dense case — kernels skip the mask).
    runtime:
        The driving runtime, for immutable globals (``num_vertices``).
    """

    part: LocalPartition
    values: np.ndarray
    active: np.ndarray | None
    runtime: "LocalGasRuntime"

    def select(self, targets: np.ndarray, *columns: np.ndarray) -> tuple:
        """Restrict per-incidence columns to active gather targets."""
        if self.active is None:
            return (targets, *columns)
        mask = self.active[targets]
        return (targets[mask], *(column[mask] for column in columns))


@runtime_checkable
class LocalVertexProgram(Protocol):
    """Partition-local vertex-program interface.

    ``edge_mode`` declares which incidences gather and activate
    (``"directed"``: in-edges; ``"undirected"``: both directions);
    ``frontier`` is ``"sparse"`` (per-vertex ``changed`` masks drive
    scatter activation) or ``"dense"`` (all-or-nothing activation decided
    by ``check_converged``, PageRank-style); ``accumulator`` is a
    :class:`DenseAccumulator` or :data:`LABEL_COUNT`.

    Optional hooks: ``setup(runtime)`` builds static per-slot / per-edge
    tables over the flat index after ``init`` (kernels slice them with
    ``ctx.part.slots`` / ``ctx.part.edges``);
    ``aggregate(runtime, values, values_global)`` reduces a global
    aggregate before each superstep's apply, from the per-slot ``values``
    and, for the edgeless vertices no partition hosts, ``values_global``;
    and ``post_superstep(runtime, step, changed)`` may rewrite the changed
    mask (label propagation's iteration bound).
    """

    edge_mode: str
    frontier: str
    accumulator: DenseAccumulator | LabelCountAccumulator

    def init(self, runtime: "LocalGasRuntime") -> np.ndarray: ...

    def gather_local(self, ctx: LocalContext): ...

    def apply(
        self, runtime: "LocalGasRuntime", vertex_ids: np.ndarray,
        old_values: np.ndarray, acc,
    ) -> np.ndarray: ...


def _identity(spec, n: int):
    """``n`` empty accumulators (the unhosted apply's)."""
    if isinstance(spec, DenseAccumulator):
        return spec.empty(n)
    empty = np.empty(0, dtype=np.int64)
    return np.zeros(n + 1, dtype=np.int64), empty, empty


def _take(spec, acc, ids: np.ndarray, size: int):
    """The accumulators of the slots ``ids``: dense values, or for the
    ragged spec ``(indptr, labels, counts)`` histogram rows sliced out of
    the slot-sorted COO triples over ``size`` slots (O(S + H) bincount
    prefix sum)."""
    if isinstance(spec, DenseAccumulator):
        return acc[ids]
    targets, labels, counts = acc
    hist_indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=size), out=hist_indptr[1:])
    starts = hist_indptr[ids]
    lengths = hist_indptr[ids + 1] - starts
    indptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    flat = ragged_take_indices(starts, lengths, indptr)
    return indptr, labels[flat], counts[flat]


def _deliver(spec, partial, dst: np.ndarray, payload, n_labels: int):
    """Merge the received rows (``payload`` for the master slots ``dst``)
    into the partials, in row order: per master, ascending mirror
    partition.  Dense partials merge in place — the payload's table *is*
    the partials, and the fold never reads a slot it writes."""
    if isinstance(spec, DenseAccumulator):
        spec.fold(partial, dst, payload.table, payload.slots)
        return partial
    if dst.size == 0:  # a grouped, key-sorted partial is its own merge
        return partial
    own_t, own_lab, own_cnt = partial
    recv_t = np.repeat(dst, np.diff(payload.indptr))
    return group_label_counts(
        np.concatenate([own_t, recv_t]),
        np.concatenate([own_lab, payload.labels]),
        n_labels,
        counts=np.concatenate([own_cnt, payload.counts]),
    )


class LocalGasRuntime:
    """Partition-local GAS runtime bound to one vertex-cut deployment.

    ``SuperstepCost.messages``/``bytes`` are measured from the exchanged
    rows; compute seconds are modeled from the active edges and masters
    at ``edges_per_second`` / ``vertices_per_second`` per partition.
    """

    mode = "local"

    def __init__(
        self,
        assignment: PartitionAssignment,
        network: NetworkModel | None = None,
        edges_per_second: float = 5e6,
        vertices_per_second: float = 2e7,
    ) -> None:
        for name, value in (
            ("edges_per_second", edges_per_second),
            ("vertices_per_second", vertices_per_second),
        ):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        self.assignment = assignment
        self.stream = assignment.stream
        self.network = network or NetworkModel()
        self.edges_per_second = float(edges_per_second)
        self.vertices_per_second = float(vertices_per_second)
        self.index: LocalIndex = build_local_index(assignment)
        self.placement = self.index.placement
        self.num_vertices = self.stream.num_vertices
        self._unhosted = self.placement.replica_counts == 0
        #: per-superstep sync masks of the last run (for the parity test)
        self.sync_masks: list[np.ndarray] = []

    def run(
        self, program: LocalVertexProgram, max_supersteps: int = 100
    ) -> tuple[np.ndarray, RunCost]:
        """Execute ``program`` to convergence; returns (values, cost)."""
        if max_supersteps <= 0:
            raise ValueError("max_supersteps must be positive")
        values_global = np.ascontiguousarray(program.init(self))
        if hasattr(program, "setup"):
            program.setup(self)
        index, part, spec = self.index, self.index.flat, program.accumulator
        n, slots = self.num_vertices, self.index.vertices.size
        dense = isinstance(spec, DenseAccumulator)
        sparse = program.frontier != "dense"
        undirected = program.edge_mode == "undirected"
        master_vertices = index.vertices[index.master_slots]
        cost = RunCost()
        self.sync_masks = []
        # deterministic replicated init: every replica evaluates init
        # itself, so the initial load crosses no wires
        values = values_global[index.vertices]
        active = np.ones(n, dtype=bool)
        for step in range(max_supersteps):
            self.sync_masks.append(active)
            # slot frontier; None = every replica (no mask to gather or apply)
            active_slots = None if active.all() else active[index.vertices]
            mirror, master = index.routes.select(active_slots)
            # (1) local gather; the selected mirrors' partials are the
            # gather rows, described rather than copied
            partial = program.gather_local(LocalContext(part, values, active_slots, self))
            if dense:
                gathered = DensePayload(partial, mirror)
            else:
                gathered = RaggedPayload(*_take(spec, partial, mirror, slots))
            if hasattr(program, "aggregate"):
                program.aggregate(self, values, values_global)
            # (2)+(3) gather sync, apply at the active masters — and at
            # the active edgeless vertices no partition hosts
            merged = _deliver(spec, partial, master, gathered, n)
            if active_slots is None:
                ids, gids = index.master_slots, master_vertices
            else:
                ids = np.flatnonzero(index.is_master & active_slots)
                gids = index.vertices[ids]
            new_values = values[ids]
            if ids.size:
                new_values = program.apply(self, gids, new_values, _take(spec, merged, ids, slots))
            values[ids] = new_values
            applied_rows = DensePayload(values, master)
            applied = [(gids, new_values)]
            isolated = np.flatnonzero(active & self._unhosted)
            if isolated.size:
                applied.append((isolated, program.apply(
                    self, isolated, values_global[isolated], _identity(spec, isolated.size),
                )))
            new_global = values_global.copy()
            changed = np.zeros(n, dtype=bool)
            for gids, new_values in applied:
                new_global[gids] = new_values
                if sparse:
                    changed[gids] = new_values != values_global[gids]
            if not sparse:
                converged = program.check_converged(self, values_global, new_global)
                changed = np.full(n, not converged, dtype=bool)
            if hasattr(program, "post_superstep"):
                changed = program.post_superstep(self, step, changed)
            # (4)+(5) apply sync and scatter, only when a next superstep
            # reads them
            more = bool(changed.any())
            next_active = changed
            if more:
                # the mirrors that sent receive their masters' new values,
                # in place: mirror and master slots are disjoint
                take_put(values, mirror, values, master)
                if sparse:
                    # message-free: every edge is co-located with both endpoints
                    changed_slots = changed[index.vertices]
                    marks = np.zeros(slots, dtype=bool)
                    marks[part.dst_local[changed_slots[part.src_local]]] = True
                    if undirected:
                        marks[part.src_local[changed_slots[part.dst_local]]] = True
                    next_active = np.zeros(n, dtype=bool)
                    next_active[index.vertices[marks]] = True
            active_edges, active_masters = index.active_counts(active_slots)
            # one gather and one apply message per selected route row
            messages = 2 * mirror.size
            volume = messages * VERTEX_HEADER_BYTES + gathered.nbytes + applied_rows.nbytes
            # the slowest partition's work, modeled
            compute = (
                active_edges / self.edges_per_second + active_masters / self.vertices_per_second
            )
            cost.add(SuperstepCost(
                step, int(np.count_nonzero(active)), int(active_edges.sum()), messages, volume,
                float(compute.max(initial=0.0)), self.network.comm_seconds(messages, volume),
            ))
            values_global = new_global
            if not more:
                break
            active = next_active
        return values_global, cost
