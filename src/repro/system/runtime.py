"""The partition-local GAS runtime: executable master/mirror dataflow.

Unlike :class:`~repro.system.engine.GasEngine` (retained as the
``mode="global"`` oracle), this runtime holds **no global compute state**:
values live per replica *slot* of the flat index
(:class:`~repro.system.placement.LocalIndex`), and replicas synchronize
exclusively through explicit typed message payloads
(:mod:`repro.system.messages`) along the mirror table's rows.

The superstep is written once: the partition-local work is the block
functions of :class:`BlockRange`, each run over a contiguous range of
partitions — one slot range and one edge range of the index — and one
superstep loop, :meth:`LocalGasRuntime.run`, owns the rest.  The local host runs
the one range ``[0, k)`` in-process, where with a dense accumulator each
of a superstep's three index-table walks (the gather along the edges,
both syncs along the routes) is one fused take-and-combine pass
(:meth:`DenseAccumulator.fold`, :func:`take_put`);
:class:`~repro.distributed.gas.DistributedGasRuntime` gives each worker
process a range and ships route rows.

One BSP superstep over the sync-active set ``A`` (every vertex at step
0, then the scatter-activated frontier), DESIGN.md section 5.1: local
gather; gather sync, one message per mirror of each ``v in A``; apply at
the active masters (and, by the coordinator, at edgeless vertices no
partition hosts); apply sync, one message back per mirror; message-free
scatter, OR-reduced into the next ``A``.  The measured message count is
the paper's ``2 * sum(|P(v)| - 1)`` over ``A`` on every superstep — for
PageRank (the Figure 8 workload) superstep by superstep the oracle's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .. import kernels
from .._util import ragged_take_indices
from ..partitioners.base import PartitionAssignment
from .engine import RunCost, SuperstepCost
from .messages import VERTEX_HEADER_BYTES, DensePayload, RaggedPayload
from .network import NetworkModel
from .placement import LocalIndex, LocalPartition, build_local_index

__all__ = [
    "BlockRange",
    "DenseAccumulator",
    "LabelCountAccumulator",
    "LABEL_COUNT",
    "LocalContext",
    "LocalVertexProgram",
    "LocalGasRuntime",
    "group_label_counts",
    "take_put",
]


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
    stored: vertex programs are pickled to distributed workers, and a
    backend holds ctypes function pointers.
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
    """What a vertex program sees inside one block: local state only.

    Attributes
    ----------
    part:
        The block's local index space and edge sub-graph — a distributed
        worker's partition range, the whole flat index in the local runtime.
    values:
        Current values of the block's replicas, indexed by local id
        (mirrors hold the last value their master broadcast).
    active:
        Sync-active frontier restricted to local ids; ``None`` when every
        replica is active (the dense case — kernels skip the mask).
    runtime:
        The driving runtime (a worker's stand-in for it), for immutable
        globals (``num_vertices``).
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
    ``ctx.part.slots`` / ``ctx.part.edges``); a global aggregate is
    ``master_aggregate(part, values, pid)`` (partition ``pid``'s partial,
    on the host holding it), ``unhosted_aggregate(runtime,
    values_global)`` and ``receive_aggregate(total)``; and
    ``post_superstep(runtime, step, changed)`` may rewrite the changed
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


class BlockRange:
    """Partitions ``[lo, hi)`` and their replicas' values: what a host
    runs the block functions over (local id = slot minus the range's
    first slot).  The local host holds ``[0, k)`` (the flat index,
    zero-copy), a distributed worker its contiguous share.

    ``senders`` are the local ids of the range's mirrors in route-row
    order — a range's route rows are one contiguous run.  Per superstep:
    :meth:`gather`; :meth:`apply` with the rows the range's masters
    received; when a next superstep reads them, :meth:`put` with the
    rows its mirrors receive, and :meth:`scatter`.
    """

    def __init__(
        self, index: LocalIndex, lo: int, hi: int, values_global: np.ndarray
    ) -> None:
        whole = (lo, hi) == (0, index.num_partitions)
        self.part = part = index.flat if whole else index.block(lo, hi)
        routes = index.routes
        mirrors = routes.mirror_slot[routes.mirror_indptr[lo] : routes.mirror_indptr[hi]]
        first = part.slots.start
        self.senders = mirrors - first if first else mirrors
        self.masters = index.master_slots if whole else np.flatnonzero(part.is_master)
        self.master_vertices = part.vertices[self.masters]
        # deterministic replicated init: every host evaluates init for its
        # own replicas, so the initial load crosses no wires (the oracle's)
        self.values = values_global[part.vertices]
        self.active = self.partial = self.sent = None

    def gather(self, program, active, runtime):
        """Local gather under the local frontier ``active`` (``None``:
        all).  Returns the selected mirrors' partials as the gather
        payload, described, and the range's aggregate partials in pid
        order."""
        part, senders = self.part, self.senders
        self.active = active
        self.sent = senders if active is None else senders[active[senders]]
        self.partial = program.gather_local(LocalContext(part, self.values, active, runtime))
        aggregates = []
        if hasattr(program, "master_aggregate"):
            aggregates = [program.master_aggregate(part, self.values, pid) for pid in part.pids]
        spec = program.accumulator
        if isinstance(spec, DenseAccumulator):
            return DensePayload(self.partial, self.sent), aggregates
        return RaggedPayload(*self._take(self.partial, self.sent, spec)), aggregates

    def apply(self, program, dst: np.ndarray, payload, runtime):
        """Fold the received rows (``payload`` for the local master ids
        ``dst``) into the partials and apply at the active masters.
        Returns their global ids and new values, and the apply payload
        back to ``dst``'s mirrors."""
        spec = program.accumulator
        merged = self._deliver(dst, payload, spec, runtime.num_vertices)
        if self.active is None:
            ids, gids = self.masters, self.master_vertices
        else:
            ids = np.flatnonzero(self.part.is_master & self.active)
            gids = self.part.vertices[ids]
        old = self.values[ids]
        new_values = (
            program.apply(runtime, gids, old, self._take(merged, ids, spec)) if ids.size else old
        )
        self.values[ids] = new_values
        return gids, new_values, DensePayload(self.values, dst)

    def put(self, payload: DensePayload) -> None:
        """Apply sync: the mirrors that sent receive their masters' new
        values (in place on the local host: mirror and master slots are
        disjoint)."""
        take_put(self.values, self.sent, payload.table, payload.slots)

    def scatter(self, changed: np.ndarray, undirected: bool) -> np.ndarray:
        """Global ids of the range's replicas with a changed neighbor —
        message-free: every edge is co-located with both endpoints."""
        part = self.part
        changed_local = changed[part.vertices]
        marks = np.zeros(part.num_vertices, dtype=bool)
        marks[part.dst_local[changed_local[part.src_local]]] = True
        if undirected:
            marks[part.src_local[changed_local[part.dst_local]]] = True
        return part.vertices[marks]

    def _take(self, acc, ids: np.ndarray, spec):
        """The accumulators of ``ids``: dense values, or for the ragged
        spec ``(indptr, labels, counts)`` histogram rows sliced out of
        the id-sorted COO triples (O(S + H) bincount prefix sum)."""
        if isinstance(spec, DenseAccumulator):
            return acc[ids]
        targets, labels, counts = acc
        size = self.part.num_vertices
        hist_indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets, minlength=size), out=hist_indptr[1:])
        starts = hist_indptr[ids]
        lengths = hist_indptr[ids + 1] - starts
        indptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        flat = ragged_take_indices(starts, lengths, indptr)
        return indptr, labels[flat], counts[flat]

    def _deliver(self, dst: np.ndarray, payload, spec, n_labels: int):
        """Merge received accumulators into the masters' partials, in row
        order: per master, ascending mirror partition.  Dense partials
        merge in place (on the local host the payload's table *is* the
        partials; the fold never reads a slot it writes)."""
        if isinstance(spec, DenseAccumulator):
            spec.fold(self.partial, dst, payload.table, payload.slots)
            return self.partial
        if dst.size == 0:  # a grouped, key-sorted partial is its own merge
            return self.partial
        own_t, own_lab, own_cnt = self.partial
        recv_t = np.repeat(dst, np.diff(payload.indptr))
        return group_label_counts(
            np.concatenate([own_t, recv_t]),
            np.concatenate([own_lab, payload.labels]),
            n_labels,
            counts=np.concatenate([own_cnt, payload.counts]),
        )


class LocalGasRuntime:
    """Partition-local GAS runtime bound to one vertex-cut deployment:
    the superstep loop, hosting its one block range in-process.

    Drop-in alternative to :class:`~repro.system.engine.GasEngine` with
    the same cost-model knobs; ``SuperstepCost.messages``/``bytes`` are
    measured from the exchanged rows instead of modeled.  Another
    host overrides the ``_start`` … ``_finish`` hooks, never :meth:`run`.
    """

    mode = "local"

    def __init__(
        self,
        assignment: PartitionAssignment,
        network: NetworkModel | None = None,
        edges_per_second: float = 5e6,
        vertices_per_second: float = 2e7,
    ) -> None:
        if edges_per_second <= 0 or vertices_per_second <= 0:
            raise ValueError("throughput parameters must be positive")
        self.assignment = assignment
        self.stream = assignment.stream
        self.network = network or NetworkModel()
        self.edges_per_second = float(edges_per_second)
        self.vertices_per_second = float(vertices_per_second)
        self.index: LocalIndex = build_local_index(assignment)
        self.placement = self.index.placement
        self.num_vertices = self.stream.num_vertices
        self.num_partitions = assignment.num_partitions
        self._unhosted = self.placement.replica_counts == 0
        self._block: BlockRange | None = None  # during a run
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
        index = self.index
        n = self.num_vertices
        sparse = program.frontier != "dense"
        undirected = program.edge_mode == "undirected"
        cost = RunCost()
        self.sync_masks = []
        active = np.ones(n, dtype=bool)
        self._start(program, values_global)
        try:
            for step in range(max_supersteps):
                started = time.perf_counter()
                self.sync_masks.append(active)
                # slot frontier; None = every replica (no mask to gather or apply)
                active_slots = None if active.all() else active[index.vertices]
                mirror, master = index.routes.select(active_slots)
                # (1) gather on every range; the global aggregate is the
                # partitions' partials added in pid order, then the
                # unhosted share (a loop, not sum(): the float contract)
                gathered, partials = self._gather(program, active_slots)
                aggregate = None
                if hasattr(program, "master_aggregate"):
                    aggregate = 0.0
                    for partial in partials:
                        aggregate += partial
                    aggregate += program.unhosted_aggregate(self, values_global)
                    program.receive_aggregate(aggregate)
                # (2)+(3) gather sync, apply at the active masters — and
                # here at the active edgeless vertices no partition hosts
                applied, applied_rows = self._apply(program, master, gathered, aggregate)
                isolated = np.flatnonzero(active & self._unhosted)
                if isolated.size:
                    applied.append((isolated, program.apply(
                        self, isolated, values_global[isolated],
                        _identity(program.accumulator, isolated.size),
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
                # reads them; the barrier ORs the activated replicas
                more = bool(changed.any())
                next_active = changed
                if more:
                    activated = self._sync(applied_rows, changed if sparse else None, undirected)
                    if sparse:
                        next_active = np.zeros(n, dtype=bool)
                        for gids in activated:
                            next_active[gids] = True
                active_edges, active_masters = index.active_counts(active_slots)
                # one gather and one apply message per selected route row
                messages = 2 * mirror.size
                volume = messages * VERTEX_HEADER_BYTES + gathered.nbytes + applied_rows.nbytes
                cost.add(SuperstepCost(
                    step, int(np.count_nonzero(active)), int(active_edges.sum()), messages,
                    volume, *self._seconds(active_edges, active_masters, messages, volume, started),
                ))
                values_global = new_global
                if not more:
                    break
                active = next_active
        finally:
            self._finish()
        return values_global, cost

    # the in-process host: one range [0, k), rows never copied

    def _start(self, program, values_global: np.ndarray) -> None:
        self._block = BlockRange(self.index, 0, self.num_partitions, values_global)

    def _gather(self, program, active_slots):
        """-> (gather payload, aggregate partials in pid order)"""
        return self._block.gather(program, active_slots, self)

    def _apply(self, program, master, gathered, aggregate):
        """Deliver the gather rows to the ``master`` slots and apply.
        -> ([(global ids, new values)], apply payload in row order)"""
        gids, new_values, payload = self._block.apply(program, master, gathered, self)
        return [(gids, new_values)], payload

    def _sync(self, applied_rows, changed, undirected: bool) -> list:
        """-> activated global ids per range (none without ``changed``)"""
        self._block.put(applied_rows)
        return [] if changed is None else [self._block.scatter(changed, undirected)]

    def _seconds(self, active_edges, active_masters, messages, volume, started):
        """-> (compute, comm): the slowest partition's work, modeled."""
        compute = active_edges / self.edges_per_second + active_masters / self.vertices_per_second
        return float(compute.max(initial=0.0)), self.network.comm_seconds(messages, volume)

    def _finish(self) -> None:
        self._block = None
