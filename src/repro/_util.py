"""Shared low-level helpers: hashing, RNG handling, timing, validation.

These utilities are deliberately dependency-light (numpy only) and are used
across the graph substrate, the partitioners, and the benchmark harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "splitmix64",
    "hash_to_partition",
    "hash_pair_to_partition",
    "stable_argsort_bounded",
    "group_by_bounded",
    "sorted_unique",
    "ragged_take_indices",
    "run_starts",
    "segment_sums",
    "grow_buffer",
    "occurrence_ranks",
    "vertex_partition_pairs",
    "first_max_partition",
    "replica_routes",
    "adjacency_rows",
    "as_rng",
    "Timer",
    "StageTimes",
    "check_positive_int",
    "check_probability",
    "human_bytes",
]

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """Deterministic 64-bit mixing function (SplitMix64 finalizer).

    Used as the hash behind the hashing-based partitioners so that results
    are reproducible across runs and platforms, unlike Python's salted
    ``hash``.  Accepts scalars or numpy arrays; always computes in uint64
    with wrap-around semantics.
    """
    z = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
        z = z ^ (z >> np.uint64(31))
    if np.ndim(x) == 0:
        return np.uint64(z)
    return z


def hash_to_partition(vertex_ids, num_partitions: int, seed: int = 0):
    """Map vertex ids to ``[0, num_partitions)`` with a seeded hash."""
    mixed = splitmix64(np.asarray(vertex_ids, dtype=np.uint64) ^ np.uint64(seed))
    return (mixed % np.uint64(num_partitions)).astype(np.int64)


def hash_pair_to_partition(src, dst, num_partitions: int, seed: int = 0):
    """Map edges (src, dst) to ``[0, num_partitions)`` with a seeded hash.

    This is the PowerGraph ``random`` edge placement: hash the edge itself.
    """
    s = np.asarray(src, dtype=np.uint64)
    d = np.asarray(dst, dtype=np.uint64)
    with np.errstate(over="ignore"):
        key = (s * np.uint64(0x9E3779B97F4A7C15)) ^ (d + np.uint64(0x632BE59BD9B4E019))
    mixed = splitmix64(key ^ np.uint64(seed))
    return (mixed % np.uint64(num_partitions)).astype(np.int64)


def stable_argsort_bounded(values: np.ndarray, upper: int) -> np.ndarray:
    """Stable argsort of non-negative integers known to be ``< upper``.

    numpy's ``kind="stable"`` dispatches to an O(m) radix sort only for
    <= 16-bit dtypes; int64 keys fall back to timsort.  Bounded keys
    (vertex ids, partition ids) can instead be decomposed into 16-bit
    digits and LSD-radix sorted in one or two stable passes — ~5x faster
    than the int64 path on typical chunk sizes.  Falls back to the plain
    stable argsort when ``upper`` exceeds 2**32.
    """
    values = np.asarray(values)
    if upper <= 1 << 16:
        return np.argsort(values.astype(np.uint16), kind="stable")
    if upper <= 1 << 32:
        order = np.argsort((values & 0xFFFF).astype(np.uint16), kind="stable")
        hi = (values >> np.int64(16)).astype(np.uint16)
        return order[np.argsort(hi[order], kind="stable")]
    return np.argsort(values, kind="stable")


def group_by_bounded(keys: np.ndarray, upper: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping of non-negative integer keys known to be < ``upper``.

    Returns ``(order, indptr)``: ``order[indptr[g]:indptr[g+1]]`` are the
    positions of key ``g`` in their original relative order.  One bounded
    radix argsort (:func:`stable_argsort_bounded`) plus a bincount
    prefix sum — the shared substrate behind partition-grouped edge
    layouts, message-buffer delivery, and replica routing tables.
    """
    keys = np.asarray(keys)
    order = stable_argsort_bounded(keys, upper)
    indptr = np.zeros(upper + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=upper), out=indptr[1:])
    return order, indptr


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-D integer array by sort + run-length
    dedupe — several times faster than the hash-based ``np.unique`` at the
    few-thousand-element sizes the service's per-batch sets have."""
    values = np.sort(values)
    if values.size == 0:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """First position of every run of equal values in a sorted 1-D array —
    the run-length-encoding step of the sort-based group-bys (empty in,
    empty out)."""
    first = np.empty(sorted_values.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return np.flatnonzero(first)


def ragged_take_indices(
    starts: np.ndarray, lengths: np.ndarray, out_indptr: np.ndarray
) -> np.ndarray:
    """Flat source indices selecting ``[starts[i], starts[i]+lengths[i])``.

    The standard vectorized ragged gather: repeat each slice's offset
    delta and cumulatively sum, so no python loop touches the rows.
    """
    total = int(out_indptr[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64)
    flat = np.ones(total, dtype=np.int64)
    heads = out_indptr[:-1][lengths > 0]
    flat[heads] = starts[lengths > 0] - np.concatenate(
        ([0], (starts + lengths)[lengths > 0][:-1] - 1)
    )
    return np.cumsum(flat)


def segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment int64 sums ``values[indptr[g]:indptr[g+1]].sum()`` of a
    boolean mask (a count of set entries) or integer weights.

    Prefix-sum differences, so an empty segment counts 0 wherever it sits
    (``np.add.reduceat`` returns the *next* element for one).
    """
    csum = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]


def grow_buffer(
    buf: np.ndarray, used: int, extra: int, fill: int | None = None
) -> np.ndarray:
    """Return ``buf`` with capacity for ``used + extra`` entries (amortized
    doubling); newly exposed cells are ``fill`` when given."""
    need = used + extra
    if need <= buf.size:
        return buf
    cap = max(need, 2 * buf.size, 1024)
    out = np.empty(cap, dtype=buf.dtype)
    out[:used] = buf[:used]
    if fill is not None:
        out[used:] = fill
    return out


def occurrence_ranks(
    u: np.ndarray, v: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Within-chunk occurrence ranks of both endpoints of every edge.

    For a chunk given as endpoint columns, returns int64 arrays
    ``(rank_u, rank_v)`` where ``rank_u[i]`` counts how often ``u[i]``
    appears as *either* endpoint of edges ``0..i`` inclusive (so the first occurrence has rank
    1).  Self-loop edges count both of their own slots at once: both ranks
    report the count *after* the whole edge, matching a sequential consumer
    that bumps ``state[u]`` and ``state[v]`` before reading either.

    This is the exact, decision-independent part of a stateful streaming
    recurrence (e.g. HDRF's partial-degree reads), lifted out of the
    per-edge loop: computed with one bounded radix argsort
    (:func:`stable_argsort_bounded`) and a grouped cumulative count, it
    lets ``degree-at-edge-i = degree_at_chunk_entry + rank`` be evaluated
    for a whole chunk at once.
    """
    m = len(u)
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    flat = np.empty(2 * m, dtype=np.int64)
    flat[0::2] = u  # u0, v0, u1, v1, ... keeps slot order = stream order
    flat[1::2] = v
    order = stable_argsort_bounded(flat, num_vertices)
    sorted_ids = flat[order]
    slots = np.arange(2 * m, dtype=np.int64)
    new_group = np.empty(2 * m, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_ids[1:] != sorted_ids[:-1]
    group_start = np.maximum.accumulate(np.where(new_group, slots, 0))
    rank = slots - group_start + 1
    # self-loop: the two slots of one edge are adjacent in the sorted order
    # (same id, consecutive slot positions); both must see the later rank
    sorted_pos = order >> 1
    pair = np.flatnonzero(
        np.concatenate(([False], (~new_group[1:]) & (sorted_pos[1:] == sorted_pos[:-1])))
    )
    rank[pair - 1] = rank[pair]
    per_slot = np.empty(2 * m, dtype=np.int64)
    per_slot[order] = rank
    return per_slot[0::2], per_slot[1::2]


def vertex_partition_pairs(src, dst, edge_partition, num_partitions: int):
    """Sparse (vertex, partition) incidence of a vertex-cut assignment.

    Returns ``(vertices, partitions, counts)`` — one row per distinct
    (vertex, partition) pair over both endpoints of every edge, sorted by
    vertex then partition, with the number of incident edges backing each
    pair.  This is the shared substrate behind replica counting, placement
    construction, and the cut-edge metric; keeping the flat-key encoding
    in one place keeps those paths consistent.

    One value sort of the ``vertex * k + partition`` keys (32-bit whenever
    the largest fits: about twice as fast to sort) and a run-length encode
    — ``np.unique(return_counts=True)`` returns the same arrays slower.
    """
    k = np.int64(num_partitions)
    keys = np.concatenate([src * k + edge_partition, dst * k + edge_partition])
    if keys.size and int(keys.max()) <= np.iinfo(np.int32).max:
        keys = keys.astype(np.int32)
    keys.sort()
    starts = run_starts(keys)
    pairs = keys[starts].astype(np.int64)
    vertices = pairs // k
    return vertices, pairs - vertices * k, np.diff(starts, append=keys.size)


def first_max_partition(vertices, partitions, counts, replica_counts) -> np.ndarray:
    """Per vertex, the partition holding the most of its edges, ties to
    the lowest id (-1 for a vertex with no edge), from a
    :func:`vertex_partition_pairs` table and each vertex's number of rows
    in it (``replica_counts``).

    The table is sorted by (vertex, partition), so each hosted vertex is
    one contiguous run of rows and the first row reaching the run's
    maximum is the lowest partition id.
    """
    master = np.full(replica_counts.size, -1, dtype=np.int64)
    if vertices.size:
        hosted = np.flatnonzero(replica_counts)
        widths = replica_counts[hosted]
        run_max = np.maximum.reduceat(counts, np.cumsum(widths) - widths)
        at_max = np.flatnonzero(counts == np.repeat(run_max, widths))
        owner = vertices[at_max]
        master[hosted] = partitions[at_max[np.r_[True, owner[1:] != owner[:-1]]]]
    return master


def replica_routes(vertices: np.ndarray, part_indptr: np.ndarray, master: np.ndarray):
    """The mirror<->master routes of a replica-slot layout (slots grouped
    by partition, ``vertices[s]`` the vertex of slot ``s``) under a
    ``master`` column: ``(is_master, master_slots, mirror_slot,
    master_slot, mirror_indptr, master_order, master_indptr)`` — every
    non-master slot paired with its vertex's master slot (-1 where the
    master partition hosts no replica), the rows stably grouped by mirror
    and by master partition."""
    k = part_indptr.size - 1
    slot_part = np.repeat(np.arange(k, dtype=np.int64), np.diff(part_indptr))
    is_master = master[vertices] == slot_part
    master_slots = np.flatnonzero(is_master)
    mirror_slot = np.flatnonzero(~is_master)
    slot_of = np.full(master.size, -1, dtype=np.int64)
    slot_of[vertices[master_slots]] = master_slots
    master_slot = slot_of[vertices[mirror_slot]]
    master_order, master_indptr = group_by_bounded(slot_part[master_slot], k)
    return (
        is_master, master_slots, mirror_slot, master_slot,
        np.searchsorted(mirror_slot, part_indptr), master_order, master_indptr,
    )


def adjacency_rows(start: int, stop: int, k: int, assignment: np.ndarray, csrs) -> np.ndarray:
    """``(stop - start, k)`` float64 table: the weight between each row of
    ``[start, stop)`` and its neighbors in each partition under
    ``assignment``, summed over the ``(indptr, indices, weights)`` CSR
    triples ``csrs`` — one bincount over the cells ``row * k +
    partition``.  Integer weights give exact sums in any order."""
    length = stop - start
    rows = np.arange(length, dtype=np.int64)
    cells, weights = [], []
    for indptr, indices, w in csrs:
        lo, hi = int(indptr[start]), int(indptr[stop])
        row_of = np.repeat(rows, np.diff(indptr[start : stop + 1]))
        cells.append(row_of * k + assignment[indices[lo:hi]])
        weights.append(w[lo:hi])
    adj = np.bincount(
        np.concatenate(cells), weights=np.concatenate(weights), minlength=length * k
    )
    # (astype: a bincount of nothing is int64 zeros whatever the weights)
    return adj.astype(np.float64, copy=False).reshape(length, k)


def as_rng(seed) -> np.random.Generator:
    """Coerce ``seed`` (None | int | Generator) into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class Timer:
    """Context-manager wall-clock timer.

    >>> with Timer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


@dataclass
class StageTimes:
    """Accumulates named stage durations (seconds) for pipeline reporting.

    ``stages`` entries are *additive* work — they sum into :attr:`total`.
    ``walls`` entries are *non-additive* wall-clock readings (e.g. the
    critical path of concurrent workers); they are kept separate so a
    deployment's "slowest node" measurement never inflates the summed
    work total that single-machine comparisons rely on.
    ``counters`` holds integer event counts (retries, requeues, timeouts
    — the reliability layer's cost accounting) alongside the timings.
    ``overlaps`` records work that ran *under* another wall rather than
    after it: seconds of stage work concurrent with another stage's wall,
    and per-worker busy/idle splits of a resident pool.  Overlap entries
    are diagnostics — they never feed :attr:`total` or
    :attr:`critical_path`, which stay the summed work and the longest
    measured wall respectively.
    """

    stages: dict = field(default_factory=dict)
    walls: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    overlaps: dict = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def add_wall(self, name: str, seconds: float) -> None:
        """Record a wall-clock reading; repeated adds keep the maximum."""
        self.walls[name] = max(self.walls.get(name, 0.0), seconds)

    def add_overlap(self, name: str, seconds: float) -> None:
        """Accumulate seconds of work hidden under another stage's wall."""
        self.overlaps[name] = self.overlaps.get(name, 0.0) + seconds

    def bump(self, name: str, count: int = 1) -> None:
        """Accumulate an integer event counter (no-op when ``count`` is 0)."""
        if count:
            self.counters[name] = self.counters.get(name, 0) + int(count)

    @property
    def total(self) -> float:
        return sum(self.stages.values())

    @property
    def critical_path(self) -> float:
        """Deployment wall-clock: the longest recorded wall, else the
        summed stage total (a serial pipeline's critical path)."""
        if self.walls:
            return max(self.walls.values())
        return self.total

    def __getitem__(self, name: str) -> float:
        return self.stages[name]

    def __contains__(self, name: str) -> bool:
        return name in self.stages


def check_positive_int(value, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as int."""
    ivalue = int(value)
    if ivalue != value or ivalue <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return ivalue


def check_probability(value, name: str) -> float:
    """Validate that ``value`` lies in [0, 1] and return it as float."""
    fvalue = float(value)
    if not 0.0 <= fvalue <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return fvalue


def human_bytes(num_bytes: float) -> str:
    """Render a byte count as a short human-readable string."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return f"{value:.2f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    raise AssertionError("unreachable")
