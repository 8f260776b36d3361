"""The partition-local GAS runtime: executable master/mirror dataflow.

Unlike :class:`~repro.system.engine.GasEngine` (retained as the
``mode="global"`` oracle), this runtime holds **no global compute state**:
values live per replica *slot* of the flat index
(:class:`~repro.system.placement.LocalIndex`), every gather/apply/scatter
is the partition-local array kernel run once over the block-diagonal
concatenation of all partitions (no edge leaves its partition's slot
range, so that is exactly k partition-local runs), and replicas
synchronize exclusively through explicit typed message buffers
(:mod:`repro.system.messages`) routed along the mirror table.  A
superstep is a fixed number of array operations whatever ``k`` is, and
with a dense accumulator its three index-table walks — the program's
gather along the edges, the gather sync and the apply sync along the
routes — are each one fused take-and-combine pass
(:meth:`DenseAccumulator.fold`, :func:`take_put`) that materializes
nothing the size of the table it walks.

One BSP superstep, with ``A`` the sync-active set entering the step
(every vertex at step 0, then the scatter-activated frontier):

1. **local gather** — each partition computes partial accumulators for
   its active local targets from its local edges only;
2. **gather sync** — every mirror of every ``v in A`` sends its partial
   to ``v``'s master: ``sum(|P(v)| - 1 for v in A)`` messages, *measured*
   by counting buffer rows;
3. **apply** — each partition applies at its active masters (plus the
   coordinator for edgeless vertices, which no partition hosts);
4. **apply sync** — masters broadcast applied values back to mirrors:
   another ``sum(|P(v)| - 1 for v in A)`` measured messages;
5. **scatter/frontier** — partitions locally mark the neighbors of
   locally-changed vertices (every edge is co-located with replicas of
   both endpoints, so this needs no messages); the barrier OR-reduces
   the per-partition bits into the next ``A``.

Per superstep the measured message count therefore equals the paper's
replication-cost formula ``2 * sum(|P(v)| - 1)`` over the sync-active
set — the parity test asserts this on every run, and for PageRank
(dense activation, the Figure 8 workload) it coincides superstep-by-
superstep with the global oracle's modeled cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .. import kernels
from .._util import ragged_take_indices
from ..partitioners.base import PartitionAssignment
from .engine import RunCost, SuperstepCost
from .messages import DensePayload, MessageBuffer, RaggedPayload
from .network import NetworkModel
from .placement import LocalIndex, LocalPartition, build_local_index

__all__ = [
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
    named ``kernel``, when it can run: a kernel backend resolves and
    every argument is exactly what the kernel indexes.  False means
    nothing was touched and the caller runs the numpy form.

    The one place the system layer asks for a backend — per call, never
    stored: vertex programs are pickled to distributed workers, and a
    backend holds ctypes function pointers.
    """
    backend = kernels.get_backend()
    if backend is None or not (
        kernels.indexable(out, dtype) and kernels.indexable(table, dtype)
        and kernels.indexable(dst, _INT64) and kernels.indexable(src, _INT64)
    ):
        return False
    getattr(backend, kernel)(dst, src, table, out)
    return True


def take_put(out: np.ndarray, dst, table: np.ndarray, src) -> None:
    """``out[dst] = table[src]`` without the ``table[src]`` temporary
    (a bit copy of 8-byte numbers on the kernel tier).

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
        numpy expression otherwise (any ufunc, any dtype, no backend).

        ``out`` may be ``table`` when the ``dst`` and ``src`` index sets
        are disjoint.  Indices are checked on both tiers (``IndexError``);
        the kernel tier also refuses the negative ones numpy would wrap,
        and has applied the rows before the bad one when it raises.
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
        The block's local index space and edge sub-graph — one partition
        on a distributed worker, the whole flat index in the local runtime.
    values:
        Current values of the block's replicas, indexed by local id
        (mirrors hold the last value their master broadcast).
    active:
        Sync-active frontier restricted to local ids; ``None`` when every
        replica is active (the dense case — kernels skip the mask).
    runtime:
        The owning runtime, for immutable globals (``num_vertices``).
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
    ``ctx.part.slots`` / ``ctx.part.edges``); ``before_apply(runtime,
    values_global)`` computes global aggregates (tree-reductions in a
    real deployment); and ``post_superstep(runtime, step, changed)`` may
    rewrite the changed mask (label propagation's iteration bound).
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


class LocalGasRuntime:
    """Partition-local GAS runtime bound to one vertex-cut deployment.

    Drop-in alternative to :class:`~repro.system.engine.GasEngine` with
    the same cost-model knobs; ``SuperstepCost.messages``/``bytes`` are
    measured from the exchanged buffers instead of modeled.
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
        #: per-slot replica values during a run (program hooks may read)
        self.values_local: np.ndarray | None = None
        #: per-superstep sync masks of the last run (for the parity test)
        self.sync_masks: list[np.ndarray] = []

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

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
        # deterministic replicated init: every worker evaluates init locally,
        # so the initial load crosses no wires (matching the oracle)
        self.values_local = values = values_global[index.vertices]
        n = self.num_vertices
        undirected = program.edge_mode == "undirected"
        sparse = program.frontier != "dense"
        spec = program.accumulator
        master_vertices = index.vertices[index.master_slots]
        cost = RunCost()
        self.sync_masks = []
        active = np.ones(n, dtype=bool)
        for step in range(max_supersteps):
            self.sync_masks.append(active)
            # slot frontier; None = every replica (no mask to gather or apply)
            active_slots = None if active.all() else active[index.vertices]
            # (1) the partition-local gather kernel, once over all blocks
            partial = program.gather_local(
                LocalContext(index.flat, values, active_slots, self)
            )
            # (2) gather sync: mirror -> master accumulator messages
            mirror, master = index.routes.select(active_slots)
            gather_buf = MessageBuffer(
                "gather", mirror, master, self._pack_accumulator(partial, mirror, spec)
            )
            merged = self._deliver_gather(gather_buf, partial, spec)
            # (3) apply at active masters (+ coordinator for edgeless vertices)
            if hasattr(program, "before_apply"):
                program.before_apply(self, values_global)
            new_global = values_global.copy()
            changed = np.zeros(n, dtype=bool)

            def apply_at(gids, old_values, acc):
                new_vals = program.apply(self, gids, old_values, acc)
                new_global[gids] = new_vals
                if sparse:
                    changed[gids] = new_vals != values_global[gids]
                return new_vals

            if active_slots is None:
                ids, gids = index.master_slots, master_vertices
            else:
                ids = np.flatnonzero(index.is_master & active_slots)
                gids = index.vertices[ids]
            if ids.size:
                values[ids] = apply_at(
                    gids, values[ids], self._take_accumulator(merged, ids, spec)
                )
            isolated = np.flatnonzero(active & self._unhosted)
            if isolated.size:
                apply_at(
                    isolated, values_global[isolated],
                    self._identity_accumulator(spec, isolated.size),
                )
            # (4) apply sync: master -> mirror value broadcasts, one walk
            # of the route table (masters send, mirrors receive: disjoint)
            apply_buf = MessageBuffer("apply", master, mirror, DensePayload(values, master))
            take_put(values, apply_buf.dst_slot, values, apply_buf.src_slot)
            # frontier policy
            if not sparse:
                converged = program.check_converged(self, values_global, new_global)
                changed = np.full(n, not converged, dtype=bool)
            if hasattr(program, "post_superstep"):
                changed = program.post_superstep(self, step, changed)
            # (5) measured superstep cost
            cost.add(self._superstep_cost(step, active, active_slots, gather_buf, apply_buf))
            values_global = new_global
            if not changed.any():
                break
            active = self._scatter_frontier(changed, undirected) if sparse else changed
        self.values_local = None
        return values_global, cost

    # ------------------------------------------------------------------ #
    # accumulator plumbing
    # ------------------------------------------------------------------ #

    def _take_accumulator(self, acc, slots: np.ndarray, spec):
        """The accumulators of ``slots``: dense values, or for the ragged
        spec ``(indptr, labels, counts)`` histogram rows sliced out of
        the slot-sorted COO triples (O(S + H) bincount prefix sum)."""
        if isinstance(spec, DenseAccumulator):
            return acc[slots]
        targets, labels, counts = acc
        hist_indptr = np.zeros(self.index.vertices.size + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(targets, minlength=self.index.vertices.size), out=hist_indptr[1:]
        )
        starts = hist_indptr[slots]
        lengths = hist_indptr[slots + 1] - starts
        indptr = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        flat = ragged_take_indices(starts, lengths, indptr)
        return indptr, labels[flat], counts[flat]

    def _pack_accumulator(self, partial, mirror: np.ndarray, spec):
        """Every active mirror's partial accumulator, as a wire payload
        (dense: described as ``partial`` at the mirror slots, not copied)."""
        if isinstance(spec, DenseAccumulator):
            return DensePayload(partial, mirror)
        return RaggedPayload(*self._take_accumulator(partial, mirror, spec))

    def _deliver_gather(self, buf: MessageBuffer, partial, spec):
        """Merge mirror accumulators into their masters' partials.

        The fold takes messages in row order, i.e. per master in
        ascending mirror partition — the merge order of a receiver
        draining its inbox partition by partition.  Dense partials merge
        in place: mirror and master slots are disjoint, so no slot the
        fold reads is one it writes."""
        if isinstance(spec, DenseAccumulator):
            spec.fold(partial, buf.dst_slot, partial, buf.src_slot)
            return partial
        if buf.count == 0:
            # nothing received: the partial is already grouped and
            # key-sorted, so it is its own merge
            return partial
        own_t, own_lab, own_cnt = partial
        payload = buf.payload
        recv_t = np.repeat(buf.dst_slot, np.diff(payload.indptr))
        return group_label_counts(
            np.concatenate([own_t, recv_t]),
            np.concatenate([own_lab, payload.labels]),
            self.num_vertices,
            counts=np.concatenate([own_cnt, payload.counts]),
        )

    def _identity_accumulator(self, spec, n: int):
        if isinstance(spec, DenseAccumulator):
            return spec.empty(n)
        return (
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    # ------------------------------------------------------------------ #
    # frontier + cost
    # ------------------------------------------------------------------ #

    def _scatter_frontier(self, changed: np.ndarray, undirected: bool) -> np.ndarray:
        """Partition-local scatter: activate neighbors of changed vertices.

        Every edge is co-located with replicas of both endpoints, so the
        marking is message-free; the barrier OR-reduces the bits (the
        control bits piggyback on the sync rounds in a real deployment).
        """
        index = self.index
        changed_slots = changed[index.vertices]
        activated = np.zeros(index.vertices.size, dtype=bool)
        activated[index.dst_slot[changed_slots[index.src_slot]]] = True
        if undirected:
            activated[index.src_slot[changed_slots[index.dst_slot]]] = True
        nxt = np.zeros(self.num_vertices, dtype=bool)
        nxt[index.vertices[activated]] = True
        return nxt

    def _superstep_cost(
        self,
        step: int,
        active: np.ndarray,
        active_slots: np.ndarray | None,
        gather_buf: MessageBuffer,
        apply_buf: MessageBuffer,
    ) -> SuperstepCost:
        active_edges, active_masters = self.index.active_counts(active_slots)
        compute_per_partition = (
            active_edges / self.edges_per_second
            + active_masters / self.vertices_per_second
        )
        messages = gather_buf.count + apply_buf.count
        volume = gather_buf.payload_nbytes + apply_buf.payload_nbytes
        return SuperstepCost(
            superstep=step,
            active_vertices=int(np.count_nonzero(active)),
            active_edges=int(active_edges.sum()),
            messages=messages,
            bytes=volume,
            compute_seconds=float(compute_per_partition.max(initial=0.0)),
            comm_seconds=self.network.comm_seconds(messages, volume),
        )
