"""Tests for the partition-local GAS runtime: local index spaces, typed
message buffers, and the runtime-vs-reference parity contract.

The acceptance matrix pins the runtime to the global-array numpy
reference (``gas_reference``): min/label programs bit-identical, PageRank
allclose (atol 1e-12) with identical superstep counts, for k in
{2, 4, 8} across Figure 8's six partitioners — and on every run the *measured*
sync messages must equal the ``2 * sum(|P(v)| - 1)`` replication formula
over the sync set.

The flat replica-slot index is pinned four ways: against a naive
per-partition ``np.unique``/``searchsorted`` builder kept here as the
oracle, by its block-diagonal invariants, by golden digests of all four
apps recorded before the layout was flattened, and — the ``slot_index``
kernel on both tiers — field for field and dtype for dtype, the compiled
one-walk build against the ``python`` sort-based one, and the placement
against a copy of the sort-based master rule the walk replaced.
"""

from __future__ import annotations

import dataclasses
import weakref
import zlib

import gas_reference as ref
import numpy as np
import pytest
from conftest import BACKENDS, kernel_backend, needs_compiled
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_algorithm
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.partitioners.base import PartitionAssignment
from repro.system import (
    LocalGasRuntime,
    LocalPartition,
    apps,
    build_local_index,
    build_placement,
    make_engine,
)
from repro.system.apps import (
    connected_components,
    label_propagation,
    pagerank,
    sssp,
)
from repro.system.runtime import DenseAccumulator, take_put
from repro._util import ragged_take_indices, segment_sums, vertex_partition_pairs

#: the partitioners Figure 8 deploys (``bench_fig8_pagerank.py``)
PARTITIONERS = ("hdrf", "greedy", "hashing", "dbh", "mint", "clugp")
PARTITION_COUNTS = (2, 4, 8)


@pytest.fixture(scope="module")
def parity_stream() -> EdgeStream:
    """~3.5K-edge crawl with some edgeless vertices (coordinator path)."""
    graph = web_crawl_graph(600, avg_out_degree=6.0, host_size=25, seed=11)
    return EdgeStream.from_graph(graph, order="natural")


@pytest.fixture(scope="module")
def assignments(parity_stream) -> dict:
    return {
        (name, k): run_algorithm(name, parity_stream, k, seed=0)[1]
        for name in PARTITIONERS
        for k in PARTITION_COUNTS
    }


def tiny_assignment():
    stream = EdgeStream([0, 1, 2, 0], [1, 2, 3, 3], num_vertices=4)
    return PartitionAssignment(stream, [0, 0, 1, 1], num_partitions=2)


def partition_views(index) -> list[LocalPartition]:
    """Each partition's block, in pid order: its slot and edge ranges of
    the flat index, endpoints rebased to its local ids."""
    views = []
    for pid in range(index.num_partitions):
        first = int(index.part_indptr[pid])
        slots = slice(first, int(index.part_indptr[pid + 1]))
        edges = slice(int(index.edge_indptr[pid]), int(index.edge_indptr[pid + 1]))
        views.append(LocalPartition(
            pid=pid,
            slots=slots,
            edges=edges,
            vertices=index.vertices[slots],
            is_master=index.is_master[slots],
            src_local=index.src_slot[edges] - first,
            dst_local=index.dst_slot[edges] - first,
            edge_ids=index.edge_ids[edges],
        ))
    return views


def assert_message_parity(runtime: LocalGasRuntime, cost) -> None:
    """Measured buffer messages == 2*sum(|P(v)|-1) over each sync set."""
    sync_factor = np.clip(runtime.placement.replica_counts - 1, 0, None)
    assert len(runtime.sync_masks) == cost.num_supersteps
    for superstep, mask in zip(cost.supersteps, runtime.sync_masks):
        assert superstep.messages == 2 * int(sync_factor[mask].sum())


# ---------------------------------------------------------------------- #
# local index spaces
# ---------------------------------------------------------------------- #

edge_streams = st.integers(2, 25).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=0,
            max_size=60,
        ),
    )
)


def build_random_assignment(data):
    n, edges = data
    src = [u for u, _ in edges]
    dst = [v for _, v in edges]
    stream = EdgeStream(src, dst, num_vertices=n)
    k = 1 + (len(edges) % 5)
    rng = np.random.default_rng(len(edges) * 31 + n)
    edge_partition = rng.integers(0, k, size=len(edges))
    return PartitionAssignment(stream, edge_partition, num_partitions=k)


def naive_layout(assignment, placement):
    """The per-partition builder the flat index replaced, as the oracle:
    one ``np.unique`` + two ``searchsorted`` per partition, routes by
    enumeration.  Returns ``(parts, routes)`` with ``routes`` rows
    ``(mirror_part, vertex, mirror_local, master_part, master_local)``
    sorted by (mirror_part, vertex)."""
    stream = assignment.stream
    parts, routes = [], []
    for pid in range(assignment.num_partitions):
        edge_ids = np.flatnonzero(assignment.edge_partition == pid)
        s, d = stream.src[edge_ids], stream.dst[edge_ids]
        vertices = np.unique(np.concatenate([s, d]))
        parts.append(
            {
                "vertices": vertices,
                "is_master": placement.master[vertices] == pid,
                "src_local": np.searchsorted(vertices, s),
                "dst_local": np.searchsorted(vertices, d),
                "edge_ids": edge_ids,
            }
        )
    for pid, part in enumerate(parts):
        for local, v in enumerate(part["vertices"].tolist()):
            home = int(placement.master[v])
            if home != pid:
                at_home = int(np.searchsorted(parts[home]["vertices"], v))
                routes.append((pid, v, local, home, at_home))
    return parts, np.array(routes, dtype=np.int64).reshape(-1, 5)


def assert_index_matches_naive(assignment):
    """Flat index == naive layout, per block and as one concatenation."""
    placement = build_placement(assignment)
    index = build_local_index(assignment, placement)
    parts, routes = naive_layout(assignment, placement)
    k = assignment.num_partitions
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum([p["vertices"].size for p in parts], out=offsets[1:])
    assert np.array_equal(index.part_indptr, offsets)
    assert np.array_equal(
        index.edge_indptr, np.r_[0, np.cumsum([p["edge_ids"].size for p in parts])]
    )
    for pid, (expect, view) in enumerate(zip(parts, partition_views(index))):
        assert view.pid == pid
        assert view.slots == slice(offsets[pid], offsets[pid + 1])
        for name, column in expect.items():
            assert np.array_equal(getattr(view, name), column), (pid, name)
        for name in ("src_local", "dst_local"):
            flat = getattr(index, name.replace("local", "slot"))[view.edges]
            assert np.array_equal(flat, expect[name] + offsets[pid])
    for name in ("vertices", "is_master", "edge_ids"):
        expect = np.concatenate([p[name] for p in parts])
        assert np.array_equal(getattr(index, name), expect), name
    # the whole index is itself one block: local id == slot, no copies
    assert index.flat.pid is None and index.flat.src_local is index.src_slot
    r = index.routes
    assert np.array_equal(r.mirror_slot, offsets[routes[:, 0]] + routes[:, 2])
    assert np.array_equal(r.master_slot, offsets[routes[:, 3]] + routes[:, 4])
    assert np.array_equal(r.mirror_indptr, np.searchsorted(routes[:, 0], np.arange(k + 1)))
    return index, placement


class TestLocalIndex:
    @settings(deadline=None, max_examples=60)
    @given(edge_streams)
    def test_round_trip_and_edge_slices(self, data):
        assignment = build_random_assignment(data)
        index = build_local_index(assignment)
        stream = assignment.stream
        all_edge_ids = []
        for part in partition_views(index):
            # global -> local -> global round trip over the hosted set
            assert np.array_equal(
                part.to_global(part.to_local(part.vertices)), part.vertices
            )
            # local edges are exactly the partition's stream slice
            assert np.array_equal(
                part.to_global(part.src_local), stream.src[part.edge_ids]
            )
            assert np.array_equal(
                part.to_global(part.dst_local), stream.dst[part.edge_ids]
            )
            assert np.array_equal(
                assignment.edge_partition[part.edge_ids],
                np.full(part.num_edges, part.pid),
            )
            all_edge_ids.append(part.edge_ids)
        # every stream edge lands in exactly one partition slice
        assert np.array_equal(
            np.sort(np.concatenate(all_edge_ids)), np.arange(stream.num_edges)
        )

    @settings(deadline=None, max_examples=60)
    @given(edge_streams)
    def test_mirror_routes_consistent_with_replica_counts(self, data):
        assignment = build_random_assignment(data)
        placement = build_placement(assignment)
        index = build_local_index(assignment, placement)
        routes = index.routes
        k = assignment.num_partitions
        slot_part = np.repeat(np.arange(k), np.diff(index.part_indptr))
        # one route row per mirror replica: counts match |P(v)| - 1
        vertex = index.vertices[routes.mirror_slot]
        assert np.array_equal(
            np.bincount(vertex, minlength=assignment.stream.num_vertices),
            np.clip(placement.replica_counts - 1, 0, None),
        )
        # every row routes a mirror to that vertex's master replica
        assert np.array_equal(index.vertices[routes.master_slot], vertex)
        assert np.array_equal(slot_part[routes.master_slot], placement.master[vertex])
        assert index.is_master[routes.master_slot].all()
        assert not index.is_master[routes.mirror_slot].any()
        assert np.array_equal(
            np.sort(np.r_[routes.mirror_slot, index.master_slots]),
            np.arange(index.vertices.size),
        )
        # rows are sorted by mirror slot and indptr delimits partitions
        assert np.all(np.diff(routes.mirror_slot) > 0)
        assert np.array_equal(
            np.diff(routes.mirror_indptr),
            np.bincount(slot_part[routes.mirror_slot], minlength=k),
        )

    @settings(deadline=None, max_examples=60)
    @given(edge_streams)
    def test_routes_never_send_from_a_slot_they_deliver_to(self, data):
        """``mirror_slot ∩ master_slot = ∅``: what lets both sync rounds
        walk the route table in place — no slot a walk reads is one it
        writes, so delivering from the live array equals delivering from
        a packed copy of it, bit for bit."""
        index = build_local_index(build_random_assignment(data))
        mirror, master = index.routes.mirror_slot, index.routes.master_slot
        assert np.intersect1d(mirror, master).size == 0
        partial = np.random.default_rng(mirror.size).random(index.vertices.size)
        packed = partial.copy()
        np.add.at(packed, master, partial[mirror])
        DenseAccumulator(np.dtype(np.float64), 0.0, np.add).fold(
            partial, master, partial, mirror
        )
        assert partial.tobytes() == packed.tobytes()
        values = packed.copy()
        packed[mirror] = packed[master]
        take_put(values, mirror, values, master)
        assert values.tobytes() == packed.tobytes()

    @settings(deadline=None, max_examples=60)
    @given(edge_streams)
    def test_flat_index_is_block_diagonal_and_matches_naive(self, data):
        assignment = build_random_assignment(data)
        index, _ = assert_index_matches_naive(assignment)
        k = assignment.num_partitions
        slot_part = np.repeat(np.arange(k), np.diff(index.part_indptr))
        edge_part = np.repeat(np.arange(k), np.diff(index.edge_indptr))
        # every edge's two slots lie in its own partition's slot range:
        # the concatenation of partition-local kernels is itself local
        assert np.array_equal(edge_part, assignment.edge_partition[index.edge_ids])
        assert np.array_equal(slot_part[index.src_slot], edge_part)
        assert np.array_equal(slot_part[index.dst_slot], edge_part)
        # slots decode to the stream's endpoints
        stream = assignment.stream
        assert np.array_equal(index.vertices[index.src_slot], stream.src[index.edge_ids])
        assert np.array_equal(index.vertices[index.dst_slot], stream.dst[index.edge_ids])

    @settings(deadline=None, max_examples=60)
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(data=edge_streams)
    def test_master_rule_matches_dense_argmax(self, backend, data):
        """Most incident edges wins, ties to the lowest partition id — the
        ``slot_index`` kernel's own rule on each tier."""
        assignment = build_random_assignment(data)
        stream = assignment.stream
        table = np.zeros((stream.num_vertices, assignment.num_partitions), dtype=np.int64)
        np.add.at(table, (stream.src, assignment.edge_partition), 1)
        np.add.at(table, (stream.dst, assignment.edge_partition), 1)
        expect = np.where(table.any(axis=1), table.argmax(axis=1), -1)
        with kernel_backend(backend):
            assert np.array_equal(build_placement(assignment).master, expect)

    def test_masters_partition_hosted_vertices(self):
        index = build_local_index(tiny_assignment())
        master_of = np.full(4, -1)
        for part in partition_views(index):
            masters = part.vertices[part.is_master]
            assert np.all(master_of[masters] == -1)
            master_of[masters] = part.pid
        assert np.array_equal(master_of, index.placement.master)

    def test_to_local_rejects_unhosted(self):
        index = build_local_index(tiny_assignment())
        # vertex 3 has no edge in partition 0
        with pytest.raises(KeyError):
            partition_views(index)[0].to_local([3])

    def test_to_local_refuses_a_block_of_several_partitions(self):
        # the flat vertices are [2, 3, 0, 1, 2]: vertex 2 has a slot in
        # each partition, and vertex 0 (slot 2) is hosted though the
        # column is not sorted, so no searchsorted of it can answer
        stream = EdgeStream([2, 0, 1], [3, 1, 2], num_vertices=4)
        index = build_local_index(PartitionAssignment(stream, [0, 1, 1], num_partitions=2))
        assert index.flat.vertices.tolist() == [2, 3, 0, 1, 2]
        with pytest.raises(ValueError, match="one slot per partition"):
            index.flat.to_local([0])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_inconsistent_placement_rejected(self, backend):
        assignment = tiny_assignment()
        placement = build_placement(assignment)
        placement.master[1] = 1  # vertex 1 only lives in partition 0
        with kernel_backend(backend), pytest.raises(KeyError, match="master"):
            build_local_index(assignment, placement)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_index_ignores_a_corrupt_replica_table(self, backend):
        """Both tiers derive the slots and the placement from the edges
        and never read the assignment's cached replica table, its
        ``|P(v)|`` counts, however wrong they are."""
        assignment = tiny_assignment()
        assignment.vertex_partition_counts()[:] = 7
        with kernel_backend(backend):
            assert_same_index(build_local_index(assignment), python_index(tiny_assignment()))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rf_sorts_the_incidence_once_per_assignment(self, backend, counted_pairs):
        with kernel_backend(backend):
            for expect in (1, 2):
                assignment = tiny_assignment()
                assignment.replication_factor()
                assignment.vertex_partition_counts()
                assignment.replication_factor()
                assert len(counted_pairs) == expect

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deployment_builds_no_placement_and_reads_no_replica_table(
        self, backend, monkeypatch, crawl_stream
    ):
        """A deployment takes its placement from its own slot index: it
        calls no :func:`build_placement` and reads no cached ``|P(v)|``."""
        import repro.system.placement as placement_module

        calls = []
        monkeypatch.setattr(
            placement_module, "build_placement", lambda *a: calls.append("build_placement")
        )
        monkeypatch.setattr(
            PartitionAssignment,
            "vertex_partition_counts",
            lambda self: calls.append("vertex_partition_counts"),
        )
        assignment = PartitionAssignment(
            crawl_stream, np.arange(crawl_stream.num_edges) % 5, num_partitions=5
        )
        with kernel_backend(backend):
            runtime = LocalGasRuntime(assignment)
        assert calls == []
        assert runtime.placement is runtime.index.placement

    @needs_compiled
    def test_deployment_and_placement_sort_no_incidence(self, counted_pairs, crawl_stream):
        """On ``cc`` neither a deployment nor :func:`build_placement`
        sorts the (vertex, partition) incidence: both are the slot
        index's walk."""
        assignment = PartitionAssignment(
            crawl_stream, np.arange(crawl_stream.num_edges) % 5, num_partitions=5
        )
        with kernel_backend("auto"):
            runtime = LocalGasRuntime(assignment)
            placement = build_placement(assignment)
        assert counted_pairs == []
        assert runtime.placement is runtime.index.placement
        assert np.array_equal(placement.master, runtime.placement.master)


@pytest.fixture
def counted_pairs(monkeypatch) -> list:
    """Record every sort of the (vertex, partition) incidence — by the
    replica counts or by the ``python`` ``slot_index``."""
    import repro.kernels._pykernels as pykernels
    import repro.partitioners.base as base

    calls = []
    real = base.vertex_partition_pairs
    for module in (base, pykernels):
        monkeypatch.setattr(
            module, "vertex_partition_pairs", lambda *a: calls.append(1) or real(*a)
        )
    return calls


# ---------------------------------------------------------------------- #
# the compiled build == the python build == build_placement, array for array
# ---------------------------------------------------------------------- #


def index_fields(index) -> dict:
    """Every scalar and array of an index, its routes and its placement."""
    fields = {}
    for owner in (index, index.routes, index.placement):
        for f in dataclasses.fields(owner):
            value = getattr(owner, f.name)
            if not dataclasses.is_dataclass(value):
                fields[f"{type(owner).__name__}.{f.name}"] = value
    return fields


def assert_same_index(got, expect) -> None:
    got, expect = index_fields(got), index_fields(expect)
    assert got.keys() == expect.keys()
    for name, want in expect.items():
        have = got[name]
        if isinstance(want, np.ndarray):
            assert have.dtype == want.dtype and have.shape == want.shape, name
            assert np.array_equal(have, want), name
        else:
            assert type(have) is type(want) and have == want, name


def python_index(assignment, placement=None):
    """The ``python`` tier's build, on the assignment's own caches."""
    with kernel_backend("python"):
        return build_local_index(assignment, placement)


layouts = st.integers(0, 25).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60
        ) if n else st.just([]),
        st.sampled_from([1, 3, 64, 100, 4096]),
        # the partitions in use (mod k): with a large k most are empty
        st.lists(st.integers(0, 4095), min_size=1, max_size=4),
        st.randoms(use_true_random=False),
    )
)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(deadline=None, max_examples=80)
@given(layouts, st.booleans())
def test_index_is_the_same_on_both_tiers(backend, data, with_placement):
    """Self-loops, duplicate edges, edgeless and isolated vertices, n = 0,
    |E| = 0, empty partitions anywhere, k from 1 to 4096, with and without
    a caller's placement: every field, dtype for dtype."""
    n, edges, k, used, rng = data
    src = [u for u, _ in edges]
    dst = [v for _, v in edges]
    parts = [rng.choice(used) % k for _ in edges]

    def fresh():
        return PartitionAssignment(EdgeStream(src, dst, n), parts, num_partitions=k)

    def build(tier):
        placement = build_placement(fresh()) if with_placement else None
        with kernel_backend(tier):
            return build_local_index(fresh(), placement)

    index = build(backend)
    assert_same_index(index, build("python"))


def sort_based_placement(assignment) -> tuple:
    """``(master, replica_counts, total_mirrors)`` by the sort-based
    build the slot index replaced, kept here as the oracle: the
    (vertex, partition) incidence sorted by vertex then partition, and
    each hosted vertex's master the first row of its run reaching the
    run's maximal count."""
    stream = assignment.stream
    verts, parts, counts = vertex_partition_pairs(
        stream.src, stream.dst, assignment.edge_partition, assignment.num_partitions
    )
    replica_counts = np.bincount(verts, minlength=stream.num_vertices).astype(np.int64)
    master = np.full(stream.num_vertices, -1, dtype=np.int64)
    hosted = np.flatnonzero(replica_counts)
    if verts.size:
        widths = replica_counts[hosted]
        run_max = np.maximum.reduceat(counts, np.cumsum(widths) - widths)
        at_max = np.flatnonzero(counts == np.repeat(run_max, widths))
        owner = verts[at_max]
        master[hosted] = parts[at_max[np.r_[True, owner[1:] != owner[:-1]]]]
    return master, replica_counts, int(verts.size - hosted.size)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(deadline=None, max_examples=80)
@given(layouts)
def test_build_placement_is_the_sort_based_rule(backend, data):
    """:func:`build_placement` — the slot index's placement — is the
    sort-based rule's, array for array and dtype for dtype, on the
    layouts above."""
    n, edges, k, used, rng = data
    parts = [rng.choice(used) % k for _ in edges]
    stream = EdgeStream([u for u, _ in edges], [v for _, v in edges], n)
    assignment = PartitionAssignment(stream, parts, num_partitions=k)
    with kernel_backend(backend):
        placement = build_placement(assignment)
    master, replica_counts, total_mirrors = sort_based_placement(assignment)
    for have, want in ((placement.master, master), (placement.replica_counts, replica_counts)):
        assert have.dtype == want.dtype and np.array_equal(have, want)
    assert type(placement.total_mirrors) is int and placement.total_mirrors == total_mirrors


@pytest.mark.parametrize("backend", BACKENDS)
@settings(deadline=None, max_examples=40)
@given(edge_streams)
def test_callers_placement_decides_the_masters(backend, data):
    """A consistent placement other than the master rule's — every vertex's
    master in the *highest* partition hosting it — is the one obeyed."""
    assignment = build_random_assignment(data)
    placement = build_placement(assignment)
    verts, parts, _ = vertex_partition_pairs(
        assignment.stream.src, assignment.stream.dst,
        assignment.edge_partition, assignment.num_partitions,
    )
    last = np.flatnonzero(np.r_[verts[1:] != verts[:-1], True]) if verts.size else verts
    placement.master[verts[last]] = parts[last]
    fresh = PartitionAssignment(assignment.stream, assignment.edge_partition, assignment.num_partitions)
    with kernel_backend(backend):
        index = build_local_index(fresh, placement)
    assert index.placement is placement
    assert_same_index(index, python_index(assignment, placement))


# ---------------------------------------------------------------------- #
# adversarial layouts
# ---------------------------------------------------------------------- #


def _assignment(src, dst, n, parts, k):
    return PartitionAssignment(EdgeStream(src, dst, num_vertices=n), parts, num_partitions=k)


ADVERSARIAL = {
    "k_exceeds_vertices": lambda: _assignment([0, 1, 2, 0], [1, 2, 0, 2], 3, [6, 0, 3, 6], 8),
    "all_edges_one_partition": lambda: _assignment(
        [0, 1, 2, 3, 1], [1, 2, 3, 0, 3], 5, [2, 2, 2, 2, 2], 4
    ),
    "self_loops": lambda: _assignment([0, 0, 1, 2, 2], [0, 1, 1, 2, 0], 3, [0, 1, 1, 0, 2], 3),
    "isolated_vertices": lambda: _assignment([1, 4, 4], [4, 6, 1], 9, [0, 1, 2], 3),
    "empty_stream": lambda: _assignment([], [], 4, [], 3),
    "interleaved_empty_partitions": lambda: interleaved_empty_assignment(),
}


def interleaved_empty_assignment():
    """k=5 with partitions 0, 2 and 4 empty (first, middle and last)."""
    return _assignment([0, 1, 2, 3, 0, 4], [1, 2, 3, 4, 4, 5], 7, [1, 1, 3, 3, 1, 3], 5)


@pytest.mark.parametrize("layout", sorted(ADVERSARIAL))
class TestAdversarialLayouts:
    def test_index_matches_naive(self, layout):
        assert_index_matches_naive(ADVERSARIAL[layout]())

    def test_all_apps_match_oracle(self, layout):
        assignment = ADVERSARIAL[layout]()
        runs = {
            "pagerank": lambda app, e: app.pagerank(e, max_supersteps=60),
            "sssp": lambda app, e: app.sssp(e, source=0),
            "cc": lambda app, e: app.connected_components(e),
            "lp": lambda app, e: app.label_propagation(e, max_iters=5),
        }
        for app, run in runs.items():
            runtime = LocalGasRuntime(assignment)
            local_values, local_cost = run(apps, runtime)
            oracle_values, oracle_steps = run(ref, assignment.stream)
            if app == "pagerank":
                assert np.allclose(local_values, oracle_values, atol=1e-12, rtol=0.0)
            else:
                assert np.array_equal(local_values, oracle_values), app
            assert local_cost.num_supersteps == oracle_steps, app
            assert_message_parity(runtime, local_cost)
            assert_cost_matches_naive(runtime, local_cost)


def assert_cost_matches_naive(runtime: LocalGasRuntime, cost) -> None:
    """Segmented per-partition counts == one Python count per partition
    block, superstep by superstep (empty partitions must count 0)."""
    for superstep, mask in zip(cost.supersteps, runtime.sync_masks):
        edges, seconds = 0, 0.0
        for part in partition_views(runtime.index):
            local = mask[part.vertices]
            active_edges = int(np.count_nonzero(local[part.src_local] | local[part.dst_local]))
            active_masters = int(np.count_nonzero(part.is_master & local))
            edges += active_edges
            seconds = max(
                seconds,
                active_edges / runtime.edges_per_second
                + active_masters / runtime.vertices_per_second,
            )
        assert superstep.active_edges == edges
        assert superstep.compute_seconds == seconds


class TestSegmentSums:
    def test_empty_segments_count_zero(self):
        mask = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
        indptr = np.array([0, 0, 2, 2, 5, 6, 6])
        assert segment_sums(mask, indptr).tolist() == [0, 1, 0, 2, 1, 0]
        # the reduceat shortcut this replaces reads the next element
        # for an empty segment
        clipped = np.minimum(indptr[:-1], mask.size - 1)
        assert np.add.reduceat(mask.astype(np.int64), clipped).tolist() != [0, 1, 0, 2, 1, 0]

    def test_no_elements(self):
        assert segment_sums(np.zeros(0, dtype=bool), np.zeros(4, dtype=np.int64)).tolist() == [0, 0, 0]

    def test_runtime_counts_on_interleaved_empty_partitions(self):
        assignment = interleaved_empty_assignment()
        runtime = LocalGasRuntime(assignment)
        # sparse frontier: supersteps past the first take the masked path
        _, cost = sssp(runtime, source=0)
        assert cost.num_supersteps > 2
        assert_cost_matches_naive(runtime, cost)
        edges, masters = runtime.index.active_counts(None)
        assert edges.tolist() == [0, 3, 0, 3, 0]
        assert masters.tolist()[::2] == [0, 0, 0] and masters.sum() == 6


class TestRaggedTake:
    def test_interleaved_empty_slices(self):
        starts = np.array([5, 0, 9, 0], dtype=np.int64)
        lengths = np.array([2, 0, 3, 0], dtype=np.int64)
        out_indptr = np.zeros(5, dtype=np.int64)
        np.cumsum(lengths, out=out_indptr[1:])
        flat = ragged_take_indices(starts, lengths, out_indptr)
        assert flat.tolist() == [5, 6, 9, 10, 11]

    def test_all_empty(self):
        out = ragged_take_indices(
            np.array([3, 7]), np.array([0, 0]), np.zeros(3, dtype=np.int64)
        )
        assert out.size == 0


# ---------------------------------------------------------------------- #
# runtime-vs-reference parity (the acceptance matrix)
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", PARTITIONERS)
@pytest.mark.parametrize("k", PARTITION_COUNTS)
class TestParityMatrix:
    def test_pagerank(self, assignments, parity_stream, name, k):
        assignment = assignments[(name, k)]
        runtime = LocalGasRuntime(assignment)
        local_values, local_cost = pagerank(runtime, max_supersteps=40)
        oracle_values, oracle_steps = ref.pagerank(assignment.stream, max_supersteps=40)
        assert local_cost.num_supersteps == oracle_steps
        assert np.allclose(local_values, oracle_values, atol=1e-12, rtol=0.0)
        assert_message_parity(runtime, local_cost)

    def test_sssp(self, assignments, parity_stream, name, k):
        assignment = assignments[(name, k)]
        source = int(
            np.bincount(
                parity_stream.src, minlength=parity_stream.num_vertices
            ).argmax()
        )
        runtime = LocalGasRuntime(assignment)
        local_values, local_cost = sssp(runtime, source=source)
        oracle_values, oracle_steps = ref.sssp(assignment.stream, source=source)
        assert np.array_equal(local_values, oracle_values)
        assert local_cost.num_supersteps == oracle_steps
        assert_message_parity(runtime, local_cost)

    def test_connected_components(self, assignments, parity_stream, name, k):
        assignment = assignments[(name, k)]
        runtime = LocalGasRuntime(assignment)
        local_values, local_cost = connected_components(runtime)
        oracle_values, oracle_steps = ref.connected_components(assignment.stream)
        assert np.array_equal(local_values, oracle_values)
        assert local_cost.num_supersteps == oracle_steps
        assert_message_parity(runtime, local_cost)

    def test_label_propagation(self, assignments, parity_stream, name, k):
        assignment = assignments[(name, k)]
        runtime = LocalGasRuntime(assignment)
        local_values, local_cost = label_propagation(runtime, max_iters=8)
        oracle_values, oracle_steps = ref.label_propagation(assignment.stream, max_iters=8)
        assert np.array_equal(local_values, oracle_values)
        assert local_cost.num_supersteps == oracle_steps
        assert_message_parity(runtime, local_cost)


@settings(deadline=None, max_examples=40)
@given(edge_streams)
def test_connected_components_parity_random(data):
    """Random streams/cuts: HashMin bit-identical to the reference."""
    assignment = build_random_assignment(data)
    runtime = LocalGasRuntime(assignment)
    local_values, local_cost = connected_components(runtime)
    oracle_values, _ = ref.connected_components(assignment.stream)
    assert np.array_equal(local_values, oracle_values)
    assert_message_parity(runtime, local_cost)


# ---------------------------------------------------------------------- #
# golden digests (recorded at the commit before the layout was flattened)
# ---------------------------------------------------------------------- #

#: (app, partitioner, k) -> (CRC-32 of the value bytes, num_supersteps,
#: total_messages, total_bytes, compute_seconds, comm_seconds) on
#: ``parity_stream``, from the list-of-LocalPartition runtime the flat
#: index replaced.  Exact equality, floats included: the flat layout
#: keeps every per-target combine order and every pairwise partial sum.
#: The clugp k = 32 rows were re-recorded when pass 2's players became
#: weighted by ``max(2|c|, cut(c))``: a different partition (RF 3.427 ->
#: 3.298) on the same runtime.
GOLDEN = {  # fmt: skip
    ('pagerank', 'clugp', 1): (2535320640, 30, 0, 0, 0.022320000000000013, 0.6000000000000002),
    ('sssp', 'clugp', 1): (3429267821, 5, 0, 0, 0.0011649499999999999, 0.1),
    ('connected_components', 'clugp', 1): (3208569366, 5, 0, 0, 0.0033784, 0.1),
    ('label_propagation', 'clugp', 1): (2276467566, 8, 0, 0, 0.00588775, 0.16),
    ('pagerank', 'clugp', 4): (3104188449, 30, 32640, 522240, 0.005878500000000002, 0.6656977919999997),
    ('sssp', 'clugp', 4): (3429267821, 5, 1666, 26656, 0.0005079, 0.10335332480000001),
    ('connected_components', 'clugp', 4): (3208569366, 5, 4688, 75008, 0.0009202500000000001, 0.10943600640000001),
    ('label_propagation', 'clugp', 4): (2276467566, 8, 8518, 210552, 0.0015674000000000003, 0.1772044416),
    ('pagerank', 'clugp', 32): (1919905210, 30, 82740, 1323840, 0.0007439999999999995, 0.766539072),
    ('sssp', 'clugp', 32): (3429267821, 5, 4712, 75392, 0.00011055, 0.10948431360000001),
    ('connected_components', 'clugp', 32): (3208569366, 5, 11754, 188064, 0.00012385, 0.1236584512),
    ('label_propagation', 'clugp', 32): (2276467566, 8, 21496, 482064, 0.00019830000000000002, 0.2033776512),
    ('pagerank', 'hdrf', 1): (2982732779, 30, 0, 0, 0.022320000000000013, 0.6000000000000002),
    ('sssp', 'hdrf', 1): (3429267821, 5, 0, 0, 0.0011649499999999999, 0.1),
    ('connected_components', 'hdrf', 1): (3208569366, 5, 0, 0, 0.0033784, 0.1),
    ('label_propagation', 'hdrf', 1): (2276467566, 8, 0, 0, 0.00588775, 0.16),
    ('pagerank', 'hdrf', 4): (2068080449, 30, 48360, 773760, 0.005616000000000004, 0.6973390079999997),
    ('sssp', 'hdrf', 4): (3429267821, 5, 2202, 35232, 0.00031385, 0.1044321856),
    ('connected_components', 'hdrf', 4): (3208569366, 5, 7068, 113088, 0.0008548, 0.1142264704),
    ('label_propagation', 'hdrf', 4): (2276467566, 8, 12490, 406632, 0.0014885, 0.1853053056),
    ('pagerank', 'hdrf', 32): (2081617085, 30, 105600, 1689600, 0.0007094999999999996, 0.81255168),
    ('sssp', 'hdrf', 32): (3429267821, 5, 5020, 80320, 7.960000000000001e-05, 0.11010425600000001),
    ('connected_components', 'hdrf', 32): (3208569366, 5, 15326, 245216, 0.00011394999999999999, 0.1308481728),
    ('label_propagation', 'hdrf', 32): (2276467566, 8, 27298, 706600, 0.00018875, 0.21516128),
    ('pagerank', 'hashing', 1): (2982732779, 30, 0, 0, 0.022320000000000013, 0.6000000000000002),
    ('sssp', 'hashing', 1): (3429267821, 5, 0, 0, 0.0011649499999999999, 0.1),
    ('connected_components', 'hashing', 1): (3208569366, 5, 0, 0, 0.0033784, 0.1),
    ('label_propagation', 'hashing', 1): (2276467566, 8, 0, 0, 0.00588775, 0.16),
    ('pagerank', 'hashing', 4): (27937069, 30, 98760, 1580160, 0.005842499999999997, 0.7987841279999998),
    ('sssp', 'hashing', 4): (3429267821, 5, 4308, 68928, 0.00030915, 0.10867114239999999),
    ('connected_components', 'hashing', 4): (3208569366, 5, 14460, 231360, 0.0008859, 0.129105088),
    ('label_propagation', 'hashing', 4): (2276467566, 8, 25308, 724640, 0.0015408, 0.211195712),
    ('pagerank', 'hashing', 32): (1959714801, 30, 300720, 4811520, 0.0008160000000000002, 1.2052892160000002),
    ('sssp', 'hashing', 32): (3429267821, 5, 13938, 223008, 4.725e-05, 0.1280544064),
    ('connected_components', 'hashing', 32): (3208569366, 5, 43776, 700416, 0.00012425, 0.18811233279999998),
    ('label_propagation', 'hashing', 32): (2276467566, 8, 77328, 1605792, 0.00021574999999999999, 0.3159406336),
}


@pytest.fixture(scope="module")
def golden_assignments(parity_stream) -> dict:
    return {
        (name, k): run_algorithm(name, parity_stream, k, seed=0)[1]
        for name, k in {key[1:] for key in GOLDEN}
    }


@pytest.mark.parametrize("app,name,k", sorted(GOLDEN))
def test_golden_digest(golden_assignments, parity_stream, app, name, k):
    runtime = LocalGasRuntime(golden_assignments[(name, k)])
    if app == "pagerank":
        values, cost = pagerank(runtime, max_supersteps=40)
    elif app == "sssp":
        out_degree = np.bincount(parity_stream.src, minlength=parity_stream.num_vertices)
        values, cost = sssp(runtime, source=int(out_degree.argmax()))
    elif app == "connected_components":
        values, cost = connected_components(runtime)
    else:
        values, cost = label_propagation(runtime, max_iters=8)
    digest = (
        zlib.crc32(values.tobytes()),
        cost.num_supersteps,
        cost.total_messages,
        cost.total_bytes,
        cost.compute_seconds,
        cost.comm_seconds,
    )
    assert digest == GOLDEN[(app, name, k)]


# ---------------------------------------------------------------------- #
# hand-checked message golden
# ---------------------------------------------------------------------- #


class TestMessageParityGolden:
    def test_cc_on_four_cycle(self):
        """Hand-checked: path 0-1-2-3 + chord 0-3, cut across two partitions.

        Replicas: v0 and v2 span both partitions (sync factor 1), v1 and
        v3 are single-homed.  Superstep 0 syncs everybody (2*(1+1) = 4
        messages), superstep 1 activates the whole frontier again (4),
        superstep 2 only {1, 3} remain active — both unreplicated, so the
        final superstep is message-free.
        """
        runtime = LocalGasRuntime(tiny_assignment())
        labels, cost = connected_components(runtime)
        assert labels.tolist() == [0, 0, 0, 0]
        assert cost.num_supersteps == 3
        assert [s.messages for s in cost.supersteps] == [4, 4, 0]
        assert_message_parity(runtime, cost)
        # the buffers carried 16 bytes/message (8B vertex id + 8B value)
        assert [s.bytes for s in cost.supersteps] == [64, 64, 0]


# ---------------------------------------------------------------------- #
# runtime behaviour
# ---------------------------------------------------------------------- #


class TestLocalRuntime:
    def test_make_engine_modes(self):
        assignment = tiny_assignment()
        assert isinstance(make_engine(assignment, mode="local"), LocalGasRuntime)
        with pytest.raises(ValueError, match="global-array engine was removed"):
            make_engine(assignment, mode="global")
        with pytest.raises(ValueError, match="mode"):
            make_engine(assignment, mode="async")

    def test_rejects_bad_throughput(self):
        with pytest.raises(ValueError):
            LocalGasRuntime(tiny_assignment(), edges_per_second=0)

    def test_rejects_bad_max_supersteps(self):
        runtime = LocalGasRuntime(tiny_assignment())
        with pytest.raises(ValueError):
            connected_components(runtime, max_supersteps=0)

    def test_single_partition_is_message_free(self):
        stream = EdgeStream([0, 1, 2], [1, 2, 3], num_vertices=4)
        assignment = PartitionAssignment(stream, [0, 0, 0], num_partitions=1)
        runtime = LocalGasRuntime(assignment)
        dist, cost = sssp(runtime, source=0)
        assert dist.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert cost.total_messages == 0

    def test_empty_stream_runs(self):
        stream = EdgeStream([], [], num_vertices=5)
        assignment = PartitionAssignment(stream, [], num_partitions=2)
        labels, cost = connected_components(LocalGasRuntime(assignment))
        assert labels.tolist() == [0, 1, 2, 3, 4]
        assert cost.total_messages == 0

    def test_pagerank_on_the_empty_graph(self):
        """Zero vertices is a legal stream: the other apps return ``[]``
        after one superstep on it; PageRank divided by ``n`` instead."""
        stream = EdgeStream([], [], num_vertices=0)
        assignment = PartitionAssignment(stream, [], num_partitions=2)
        values, cost = pagerank(LocalGasRuntime(assignment))
        labels, label_cost = connected_components(LocalGasRuntime(assignment))
        assert values.shape == (0,) and values.dtype == np.float64
        assert labels.shape == (0,)
        assert cost.to_dict() == label_cost.to_dict()
        assert cost.num_supersteps == 1 and cost.total_messages == 0

    def test_pagerank_without_edges_is_uniform(self):
        stream = EdgeStream([], [], num_vertices=5)
        assignment = PartitionAssignment(stream, [], num_partitions=2)
        values, cost = pagerank(LocalGasRuntime(assignment))
        assert np.allclose(values, 0.2, atol=1e-15, rtol=0.0)
        assert cost.num_supersteps == 1 and cost.total_messages == 0

    def test_isolated_vertices_keep_pagerank_mass(self):
        # vertex 3 has no edges: its rank is applied by the coordinator
        stream = EdgeStream([0, 1], [1, 0], num_vertices=4)
        assignment = PartitionAssignment(stream, [0, 1], num_partitions=2)
        local_values, _ = pagerank(LocalGasRuntime(assignment), max_supersteps=60)
        oracle_values, _ = ref.pagerank(stream, max_supersteps=60)
        assert np.allclose(local_values, oracle_values, atol=1e-12, rtol=0.0)
        assert local_values.sum() == pytest.approx(1.0)

    def test_self_loops_count_twice_in_lp(self):
        stream = EdgeStream([0, 0, 1], [0, 1, 2], num_vertices=3)
        assignment = PartitionAssignment(stream, [0, 1, 1], num_partitions=2)
        local_values, _ = label_propagation(LocalGasRuntime(assignment), max_iters=4)
        oracle_values, _ = ref.label_propagation(stream, max_iters=4)
        assert np.array_equal(local_values, oracle_values)

    def test_weighted_sssp_slices_weights_per_partition(self):
        stream = EdgeStream([0, 0, 1], [1, 2, 2], num_vertices=3)
        assignment = PartitionAssignment(stream, [0, 1, 0], num_partitions=2)
        weights = [5.0, 1.0, 1.0]
        local_values, _ = sssp(LocalGasRuntime(assignment), source=0, weights=weights)
        oracle_values, _ = ref.sssp(stream, source=0, weights=weights)
        assert np.array_equal(local_values, oracle_values)
        assert local_values.tolist() == [0.0, 5.0, 1.0]

    def test_sssp_validation(self):
        runtime = LocalGasRuntime(tiny_assignment())
        with pytest.raises(ValueError, match="source"):
            sssp(runtime, source=99)
        with pytest.raises(ValueError, match="non-negative"):
            sssp(runtime, source=0, weights=[-1.0, 1.0, 1.0, 1.0])

    def test_sssp_refuses_nan_weights(self):
        """A NaN weight used to poison every distance relaxed through it:
        ``[0, nan, nan, nan]`` where vertex 3 is at distance 1 (0 -> 3)."""
        runtime = LocalGasRuntime(tiny_assignment())
        with pytest.raises(ValueError, match="NaN"):
            sssp(runtime, source=0, weights=[np.nan, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "source", [1.7, 1.0, True, np.True_, "1"],
        ids=["float", "integral_float", "bool", "numpy_bool", "str"],
    )
    def test_sssp_refuses_a_non_integral_source(self, source):
        """``int()`` used to truncate: 1.7 and True both ran from vertex 1."""
        runtime = LocalGasRuntime(tiny_assignment())
        with pytest.raises(TypeError, match="source"):
            sssp(runtime, source=source)
        assert sssp(runtime, source=np.int64(1))[0].tolist() == [np.inf, 0.0, 1.0, 2.0]

    def test_values_local_released_after_run(self):
        """The per-slot values live only as long as the run: the runtime
        keeps no reference to them once it returns."""
        seen = []

        class Recording(apps.ConnectedComponentsProgram):
            def gather_local(self, ctx):
                seen.append(weakref.ref(ctx.values))
                return super().gather_local(ctx)

        runtime = LocalGasRuntime(tiny_assignment())
        runtime.run(Recording())
        assert seen and seen[0]() is None
