"""Differential tests for the incremental service's derived state (DESIGN.md §7.6).

``PartitionService._maintain`` updates three pieces of state instead of
rebuilding them: the cluster graph (a raw-id delta layer), a vertex ->
incident-edge index, and the pass-1 state.  Every served array
must stay bit-identical to the rebuild-everything maintenance cycle this
replaced; that cycle lives on here, as :class:`RebuildOracle`, and the
feeds below are checked against it after *every* batch:

* the delta layer frozen over the live clusters ≡ ``build_cluster_graph``
  over the accumulated stream, array for array and dtype for dtype;
* the index ≡ the linear scan over the accumulated stream;
* the live view the hot path reads (``ClusteringState.live()``) ≡
  ``snapshot()``: raw ids, count, degree, divided, seen vertices and
  their compact ids;
* ``edge_partition`` / ``vertex_partition`` / ``loads`` / the
  ``BatchStats`` counts ≡ the oracle's.

Also pinned: no ``build_cluster_graph`` / ``EdgeStream`` / ``_compact`` on
the hot path after batch 0, a failed batch leaves the service untouched (I5 included),
``resume()`` rebuilds the derived state, ``phase_seconds`` add up, and
the pass-1 state round-trips on every tier.
"""

import math

import numpy as np
import pytest
from conftest import assert_clustering_equal, kernel_backend
from hypothesis import given, settings, strategies as st

from repro.config import ClugpConfig, GameConfig
from repro.core import clustering as clustering_mod
from repro.core import transform as transform_mod
from repro.core.cluster_graph import ClusterGraphDelta, build_cluster_graph
from repro.core.clustering import ClusteringState
from repro.core.distributed import balance_quotas
from repro.core.game import ClusterPartitioningGame
from repro.core.partitioner import ClugpPartitioner
from repro.core.transform import TransformState
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.reliability.checkpoint import read_checkpoint, write_checkpoint
from repro.service import BatchStats, PartitionService, plan_migrations
from repro.service import service as service_mod
from repro.service.index import EndpointIndex

GRAPH_ARRAYS = (
    "internal", "indptr", "indices", "weights",
    "in_indptr", "in_indices", "in_weights",
)
COUNTS = (
    "num_edges", "total_edges", "clusters", "frontier_clusters", "game_rounds",
    "game_moves", "candidate_moves", "applied_moves", "deferred_moves",
    "reassigned_edges", "churn_edges",
)


def assert_same_array(got, want, what):
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert np.array_equal(got, want), what


def assert_same_graph(got, want):
    assert got.num_clusters == want.num_clusters
    for name in GRAPH_ARRAYS:
        assert_same_array(getattr(got, name), getattr(want, name), name)


class RebuildOracle:
    """The maintenance cycle as it was before the derived state existed:
    every batch re-validates the whole stream, rebuilds the cluster graph
    from it and scans it for the edges a migration touches."""

    def __init__(self, num_vertices, config, migration_cap, expected_edges=None):
        self.n = num_vertices
        self.cfg = config
        self.k = config.num_partitions
        self.migration_cap = migration_cap
        self.expected_edges = expected_edges
        self.state = None
        self.src = np.empty(0, dtype=np.int64)
        self.dst = np.empty(0, dtype=np.int64)
        self.edge_part = np.empty(0, dtype=np.int64)
        self.vp = np.full(num_vertices, -1, dtype=np.int64)
        self.raw_assign = np.full(0, -1, dtype=np.int64)
        self.loads = np.zeros(self.k, dtype=np.int64)
        self.replicas = np.zeros(num_vertices, dtype=np.uint64)

    def ingest_pair(self, u, v):
        """Apply one non-empty batch; returns its ``BatchStats`` counts."""
        cfg, k, n = self.cfg, self.k, self.n
        m_batch = u.shape[0]
        first = self.state is None
        if first:
            vmax = cfg.resolve_vmax(self.expected_edges or m_batch)
            self.state = ClusteringState(
                n, vmax, enable_splitting=cfg.enable_splitting
            )
        state = self.state
        state.ingest_pair(u, v)
        snap = state.snapshot()
        m_clusters = snap.num_clusters
        old_edges = self.src.size
        total = old_edges + m_batch
        self.src = np.concatenate([self.src, u])
        self.dst = np.concatenate([self.dst, v])
        stream = EdgeStream(self.src, self.dst, n)

        graph = build_cluster_graph(stream, snap)
        raw_to_compact = np.full(state.num_raw, -1, dtype=np.int64)
        raw_to_compact[snap.raw_ids] = np.arange(m_clusters, dtype=np.int64)
        init = None if first else self._warm_start(snap, graph, raw_to_compact, m_clusters)
        result = ClusterPartitioningGame(graph, k, cfg.game, initial_assignment=init).run()
        grown = np.full(state.num_raw, -1, dtype=np.int64)
        grown[: self.raw_assign.size] = self.raw_assign
        self.raw_assign = grown
        self.raw_assign[snap.raw_ids] = result.assignment

        ideal = np.full(n, -1, dtype=np.int64)
        seen = snap.cluster_of >= 0
        ideal[seen] = result.assignment[snap.cluster_of[seen]]
        plan = plan_migrations(self.vp, ideal, snap.degree, self.migration_cap)
        newly_placed = (self.vp < 0) & (ideal >= 0)
        self.vp[newly_placed] = ideal[newly_placed]
        if plan.vertices.size:
            self.vp[plan.vertices] = plan.targets

        if plan.vertices.size and old_edges:
            moved = np.zeros(n, dtype=bool)
            moved[plan.vertices] = True
            affected = np.flatnonzero(
                moved[self.src[:old_edges]] | moved[self.dst[:old_edges]]
            )
        else:
            affected = np.empty(0, dtype=np.int64)
        loads = self.loads
        old_parts = self.edge_part[affected].copy()
        if affected.size:
            loads -= np.bincount(old_parts, minlength=k)
        cap = max(1, math.ceil(cfg.imbalance_factor * total / k))
        caps = balance_quotas(loads.reshape(1, k), cap)[0]
        transform = TransformState(
            snap, None, k, num_edges=int(affected.size) + m_batch, num_vertices=n,
            imbalance_factor=cfg.imbalance_factor, vertex_partition=self.vp,
            load_caps=caps, initial_loads=loads,
        )
        transform.replicas[:] = self.replicas
        churn = 0
        self.edge_part = np.concatenate([self.edge_part, np.empty(m_batch, dtype=np.int64)])
        if affected.size:
            re_parts = transform.ingest_pair(self.src[affected], self.dst[affected])
            self.edge_part[affected] = re_parts
            churn = int((re_parts != old_parts).sum())
        self.edge_part[old_edges:total] = transform.ingest_pair(u, v)
        self.loads = transform.loads
        self.replicas = transform.replicas
        return {
            "num_edges": m_batch, "total_edges": total, "clusters": m_clusters,
            "frontier_clusters": m_clusters, "game_rounds": result.rounds,
            "game_moves": result.moves, "candidate_moves": plan.candidates,
            "applied_moves": plan.applied, "deferred_moves": plan.deferred,
            "reassigned_edges": int(affected.size), "churn_edges": churn,
        }

    def _warm_start(self, snap, graph, raw_to_compact, m_clusters):
        init = np.full(m_clusters, -1, dtype=np.int64)
        known_raw = snap.raw_ids[snap.raw_ids < self.raw_assign.size]
        init[raw_to_compact[known_raw]] = self.raw_assign[known_raw]
        unknown = init < 0
        if unknown.any():
            cand = np.flatnonzero(
                (snap.cluster_of >= 0)
                & unknown[np.maximum(snap.cluster_of, 0)]
                & (self.vp >= 0)
            )
            if cand.size:
                cl = snap.cluster_of[cand]
                order = np.lexsort((cand, -snap.degree[cand], cl))
                labels, firsts = np.unique(cl[order], return_index=True)
                init[labels] = self.vp[cand[order][firsts]]
            still = np.flatnonzero(init < 0)
            if still.size:
                filled = init >= 0
                weights = graph.player_weights()
                load_init = np.bincount(
                    init[filled], weights=weights[filled].astype(np.float64),
                    minlength=self.k,
                )
                for c in still.tolist():
                    p = int(np.argmin(load_init))
                    init[c] = p
                    load_init[p] += float(weights[c])
        return init


def check_live_view(state, snap):
    """What ``_maintain`` reads in place ≡ what ``snapshot()`` copies."""
    live = state.live()
    assert_same_array(live.raw_ids, snap.raw_ids, "raw_ids")
    assert live.num_clusters == snap.num_clusters
    assert_same_array(live.degree, snap.degree, "degree")
    assert_same_array(live.divided, snap.divided, "divided")
    seen = np.flatnonzero(snap.cluster_of >= 0)
    assert_same_array(np.flatnonzero(live.raw_of >= 0), seen, "seen vertices")
    assert_same_array(live.compact(seen), snap.cluster_of[seen], "compact ids")
    # views of the live tables, not copies; the snapshot is the copy
    again = state.live()
    for name in ("raw_of", "degree", "divided"):
        assert np.shares_memory(getattr(live, name), getattr(again, name)), name
    assert not np.shares_memory(live.degree, snap.degree)
    assert not np.shares_memory(live.divided, snap.divided)


def check_derived_state(service):
    """Delta layer ≡ full rebuild; index ≡ linear scan; live view ≡ snapshot."""
    stream = service.stream()
    snap = service._state.snapshot()
    check_live_view(service._state, snap)
    assert_same_graph(service._delta.freeze(snap.raw_ids), build_cluster_graph(stream, snap))
    n = service.num_vertices
    rng = np.random.default_rng(service.num_edges)
    queries = [np.arange(n), np.empty(0, dtype=np.int64)]
    queries += [np.array([x]) for x in rng.integers(0, n, size=3)]
    queries += [np.flatnonzero(rng.random(n) < 0.3)]
    for vertices in queries:
        scan = np.flatnonzero(np.isin(stream.src, vertices) | np.isin(stream.dst, vertices))
        assert_same_array(service._index.incident(vertices, stream.src, stream.dst), scan, "index")


def check_against_oracle(service, oracle, stats, want):
    assert {name: getattr(stats, name) for name in COUNTS} == want
    assert_same_array(service.edge_partition, oracle.edge_part, "edge_partition")
    assert_same_array(service.vertex_partition, oracle.vp, "vertex_partition")
    assert_same_array(service.loads, oracle.loads, "loads")
    assert np.array_equal(service.loads, np.bincount(service.edge_partition, minlength=service.k))


@st.composite
def feeds(draw):
    """``(num_vertices, k, vmax, cap, batches)`` — small adversarial feeds."""
    n = draw(st.integers(6, 28))
    num_edges = draw(st.integers(1, 90))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, num_edges)
    dst = rng.integers(0, n, num_edges)
    if draw(st.booleans()):  # one mega-hub; it is in most batches, so it migrates
        hub = int(rng.integers(0, n))
        spokes = rng.random(num_edges) < 0.4
        src = np.where(spokes, hub, src)
    if draw(st.booleans()):  # duplicate edges
        take = rng.integers(0, num_edges, max(1, num_edges // 4))
        src = np.concatenate([src, src[take]])
        dst = np.concatenate([dst, dst[take]])
    if draw(st.booleans()):  # self-loops
        loops = rng.integers(0, n, max(1, src.size // 6))
        src = np.concatenate([src, loops])
        dst = np.concatenate([dst, loops])
    order = np.argsort(src, kind="stable") if draw(st.booleans()) else rng.permutation(src.size)
    src, dst = src[order].astype(np.int64), dst[order].astype(np.int64)
    cuts = sorted(draw(st.lists(st.integers(0, src.size), max_size=8)))  # repeats = empty batches
    bounds = [0, *cuts, src.size]
    batches = [(src[a:b], dst[a:b]) for a, b in zip(bounds, bounds[1:])]
    return (
        n,
        draw(st.integers(2, 4)),
        draw(st.sampled_from([3, 8, 40])),
        draw(st.sampled_from([0, 3, None])),
        batches,
    )


#: ``conftest.kernel_backend`` names under the ids this module has always
#: used: the compiled kernels and the ``python`` ones
TIERS = {"jit": "auto", "python": "python"}


@pytest.fixture
def tier(request):
    with kernel_backend(TIERS[request.param]):
        yield


@settings(max_examples=60)
@given(feed=feeds(), tier=st.sampled_from(["auto", "python"]), splitting=st.booleans())
def test_every_batch_matches_the_rebuild_oracle(feed, tier, splitting):
    n, k, vmax, cap, batches = feed
    cfg = ClugpConfig(
        num_partitions=k, max_cluster_volume=vmax, imbalance_factor=1.2,
        enable_splitting=splitting, game=GameConfig(seed=5),
    )
    service = PartitionService(n, cfg, migration_cap=cap)
    oracle = RebuildOracle(n, cfg, cap)
    with kernel_backend(tier):
        for u, v in batches:
            stats = service.ingest_pair(u, v)
            if u.size == 0:
                assert stats.num_edges == 0 and stats.phase_seconds == {}
                continue
            check_against_oracle(service, oracle, stats, oracle.ingest_pair(u, v))
            check_derived_state(service)


def crawl_batches(pages=500, batch=400, seed=3):
    graph = web_crawl_graph(pages, avg_out_degree=6, host_size=20, seed=seed)
    stream = EdgeStream.from_graph(graph, order="bfs", seed=seed)
    return stream, list(stream.batches(batch))


@pytest.mark.parametrize("tier", list(TIERS), indirect=True)
def test_crawl_feed_matches_the_rebuild_oracle(tier):
    """A feed long enough to split, migrate, re-index and hit the cap
    (with the paper's split rule on, so the service's split path runs)."""
    stream, batches = crawl_batches()
    cfg = ClugpConfig(num_partitions=8, enable_splitting=True)
    service = PartitionService(
        stream.num_vertices, cfg, migration_cap=16, expected_edges=stream.num_edges
    )
    oracle = RebuildOracle(stream.num_vertices, cfg, 16, stream.num_edges)
    for u, v in batches:
        stats = service.ingest_pair(u, v)
        check_against_oracle(service, oracle, stats, oracle.ingest_pair(u, v))
        check_derived_state(service)
    assert service._state.splits and service._state.migrations
    assert sum(s.churn_edges for s in service.history) > 0


def test_a_spill_sees_replicas_of_earlier_batches():
    """The replica summaries cross batches.  Against a service whose
    summaries are wiped before every batch (no migrations, so a batch
    re-streams only its own edges, in order), the first edge the two
    place differently is a spill, sent to a partition that an endpoint's
    summary named before the batch began."""
    stream, batches = crawl_batches()
    cfg = ClugpConfig(num_partitions=8, imbalance_factor=1.0)
    kept, wiped = (
        PartitionService(stream.num_vertices, cfg, migration_cap=0,
                         expected_edges=stream.num_edges)
        for _ in range(2)
    )
    for u, v in batches:
        before = kept._replicas.copy()
        wiped._replicas[:] = 0
        old_edges = kept.num_edges
        kept.ingest_pair(u, v)
        wiped.ingest_pair(u, v)
        got = kept.edge_partition[old_edges:]
        differ = np.flatnonzero(got != wiped.edge_partition[old_edges:])
        if differ.size:
            break
    else:
        pytest.fail("wiping the summaries never changed a placement")
    i = int(differ[0])
    x, y, target = int(u[i]), int(v[i]), int(got[i])
    assert target not in (kept.vertex_partition[x], kept.vertex_partition[y])
    assert (int(before[x]) | int(before[y])) >> target & 1
    assert kept.batch_index > 1


def test_single_batch_is_the_batch_pipeline():
    """Anchor I1 with the derived state in place."""
    stream, _ = crawl_batches()
    service = PartitionService(stream.num_vertices, ClugpConfig(num_partitions=8))
    service.ingest_pair(stream.src, stream.dst)
    want = ClugpPartitioner(8).partition(stream)
    assert_same_array(service.edge_partition, want.edge_partition, "edge_partition")
    check_derived_state(service)


def test_hot_path_builds_no_stream_and_no_graph(monkeypatch):
    stream, batches = crawl_batches()
    service = PartitionService(
        stream.num_vertices, ClugpConfig(num_partitions=8), migration_cap=16,
        expected_edges=stream.num_edges, quality_every=10**9,
    )
    service.ingest_pair(*batches[0])  # batch 0: quality sample + first-batch build

    def forbidden(*args, **kwargs):
        raise AssertionError("O(|E|) rebuild reached from the hot path")

    monkeypatch.setattr(service_mod, "build_cluster_graph", forbidden)
    monkeypatch.setattr(EdgeStream, "__init__", forbidden)
    # nor a |V|-sized compaction: snapshot() and finalize() both end in it
    monkeypatch.setattr(clustering_mod, "_compact", forbidden)
    for u, v in batches[1:6]:
        stats = service.ingest_pair(u, v)
        assert stats.replication_factor is None


def test_delta_layer_roundtrip_and_tripwire():
    stream, _ = crawl_batches()
    state = ClusteringState(stream.num_vertices, 600, enable_splitting=True)
    state.ingest_pair(stream.src, stream.dst)
    snap = state.snapshot()
    graph = build_cluster_graph(stream, snap)
    layer = ClusterGraphDelta.from_graph(graph, snap.raw_ids)
    assert_same_graph(layer.freeze(snap.raw_ids), graph)
    assert int(layer.weights.sum()) == stream.num_edges
    none = np.empty(0, dtype=np.int64)
    assert layer.updated(none, none, none, none) is layer
    absent = np.array([snap.raw_ids[-1] + 1])
    with pytest.raises(ValueError, match="does not hold"):
        layer.updated(none, none, absent, absent)


@settings(max_examples=40)
@given(
    n=st.integers(1, 40),
    sizes=st.lists(st.integers(0, 60), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_index_matches_linear_scan_as_the_log_grows(n, sizes, seed):
    rng = np.random.default_rng(seed)
    index = EndpointIndex(n)
    src = np.empty(0, dtype=np.int64)
    dst = np.empty(0, dtype=np.int64)
    for size in sizes:
        src = np.concatenate([src, rng.integers(0, n, size)])
        dst = np.concatenate([dst, rng.integers(0, n, size)])
        # looked up both behind the index (unindexed tail) and after extend
        for _ in range(2):
            vertices = np.flatnonzero(rng.random(n) < 0.4)
            scan = np.flatnonzero(np.isin(src, vertices) | np.isin(dst, vertices))
            assert_same_array(index.incident(vertices, src, dst), scan, "incident")
            index.extend(src, dst)


# --------------------------------------------------------------------- #
# a failed batch leaves no trace
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("tier", list(TIERS), indirect=True)
@pytest.mark.parametrize("fail_on_call", [1, 2])
def test_failed_pass3_rolls_the_batch_back(monkeypatch, tier, fail_on_call):
    stream, batches = crawl_batches()
    cfg = ClugpConfig(num_partitions=8)

    def fresh():
        return PartitionService(
            stream.num_vertices, cfg, migration_cap=16, expected_edges=stream.num_edges
        )

    service, clean = fresh(), fresh()
    for u, v in batches[:3]:
        service.ingest_pair(u, v)
        clean.ingest_pair(u, v)
    before = (service.edge_partition, service.vertex_partition, service.loads)
    replicas_before = service._replicas.copy()
    arrays_before, meta_before = service._state.state_dict()
    arrays_before = {key: a.copy() for key, a in arrays_before.items()}

    real = TransformState.ingest_pair
    calls = {"n": 0}

    def flaky(self, u, v):
        calls["n"] += 1
        if calls["n"] == fail_on_call:
            raise RuntimeError("injected pass-3 failure")
        return real(self, u, v)

    monkeypatch.setattr(transform_mod.TransformState, "ingest_pair", flaky)
    with pytest.raises(RuntimeError, match="injected"):
        service.ingest_pair(*batches[3])
    monkeypatch.setattr(transform_mod.TransformState, "ingest_pair", real)

    # nothing moved: served arrays, I5, pass-1 state, counters, derived state
    for got, want in zip((service.edge_partition, service.vertex_partition, service.loads), before):
        assert np.array_equal(got, want)
    assert np.array_equal(service.loads, np.bincount(service.edge_partition, minlength=8))
    assert np.array_equal(service._replicas, replicas_before)
    cap = math.ceil(cfg.imbalance_factor * service.num_edges / 8)
    assert int(service.loads.max()) <= cap
    assert service.batch_index == 3 and len(service.history) == 3
    arrays_after, meta_after = service._state.state_dict()
    assert meta_after == meta_before
    for key, want in arrays_before.items():
        assert np.array_equal(arrays_after[key], want), key
    check_derived_state(service)

    # and the next batches are accepted as if the failure never happened
    for u, v in batches[3:6]:
        got, want = service.ingest_pair(u, v), clean.ingest_pair(u, v)
        assert {name: getattr(got, name) for name in COUNTS} == {
            name: getattr(want, name) for name in COUNTS
        }
        assert np.array_equal(service.edge_partition, clean.edge_partition)
        assert np.array_equal(service.vertex_partition, clean.vertex_partition)
        check_derived_state(service)


def test_failed_first_batch_leaves_an_empty_service(monkeypatch):
    stream, batches = crawl_batches()
    service = PartitionService(stream.num_vertices, ClugpConfig(num_partitions=4))

    def boom(self, u, v):
        raise RuntimeError("injected")

    monkeypatch.setattr(transform_mod.TransformState, "ingest_pair", boom)
    with pytest.raises(RuntimeError):
        service.ingest_pair(*batches[0])
    monkeypatch.undo()
    assert service.num_edges == 0 and service._state is None
    assert (service.vertex_partition == -1).all()
    service.ingest_pair(*batches[0])
    clean = PartitionService(stream.num_vertices, ClugpConfig(num_partitions=4))
    clean.ingest_pair(*batches[0])
    assert np.array_equal(service.edge_partition, clean.edge_partition)


# --------------------------------------------------------------------- #
# resume rebuilds the derived state
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("tier", list(TIERS), indirect=True)
@pytest.mark.parametrize("stop_after", [1, 4])
def test_resume_equals_uninterrupted_feed(tmp_path, stop_after, tier):
    stream, batches = crawl_batches()
    cfg = ClugpConfig(num_partitions=8)

    def make(checkpoint_dir=None):
        return PartitionService(
            stream.num_vertices, cfg, migration_cap=16,
            expected_edges=stream.num_edges, checkpoint_dir=checkpoint_dir,
        )

    whole = make()
    for u, v in batches:
        whole.ingest_pair(u, v)

    first = make(str(tmp_path))
    for u, v in batches[:stop_after]:
        first.ingest_pair(u, v)
    first.close()  # journal holds the batches since the last checkpoint
    # put the checkpoints into the shape older commits wrote: the config
    # carried the four retired implementation selectors, and the pass-1
    # state the counters of the numpy tier's retired chunk classifier
    for path in tmp_path.glob("checkpoint-*.ckpt"):
        arrays, meta = read_checkpoint(path)
        meta["config"].update(chunk_impl="jit", kernel_backend="auto")
        meta["config"]["game"].update(game_impl="jit", kernel_backend="auto")
        if meta["state_meta"] is not None:
            meta["state_meta"].update(edges_suspect=123, chunk_index=5, scalar_bias=True)
        write_checkpoint(path, arrays, meta)
    resumed = PartitionService.resume(str(tmp_path))
    assert resumed.batch_index == stop_after
    check_derived_state(resumed)
    assert_same_array(resumed._delta.keys, first._delta.keys, "delta keys")
    assert_same_array(resumed._delta.weights, first._delta.weights, "delta weights")
    for u, v in batches[stop_after:]:
        resumed.ingest_pair(u, v)
        check_derived_state(resumed)
    resumed.close()
    assert np.array_equal(resumed.edge_partition, whole.edge_partition)
    assert np.array_equal(resumed.vertex_partition, whole.vertex_partition)
    assert np.array_equal(resumed.loads, whole.loads)
    (got, got_meta), (want, want_meta) = resumed._state.state_dict(), whole._state.state_dict()
    assert got_meta == want_meta
    for key, array in want.items():
        assert_same_array(got[key], array, key)


@pytest.mark.parametrize("tier", list(TIERS), indirect=True)
def test_resume_reads_a_checkpoint_that_carries_the_mirror_journal(tmp_path, tier):
    # checkpoints written while pass 1 kept a mirror journal carry its two
    # arrays, an allocation counter in the state meta and an ingest mode
    # in the reliability config; resume ignores all three and continues
    # bit-identically (same format, no migration step)
    stream, batches = crawl_batches()
    cfg = ClugpConfig(num_partitions=8, enable_splitting=True)
    stop_after = 3

    def make(checkpoint_dir=None):
        return PartitionService(
            stream.num_vertices, cfg, migration_cap=16,
            expected_edges=stream.num_edges, checkpoint_dir=checkpoint_dir,
        )

    whole = make()
    for u, v in batches:
        whole.ingest_pair(u, v)

    first = make(str(tmp_path))
    for u, v in batches[:stop_after]:
        first.ingest_pair(u, v)
    first.close()
    written = sorted(tmp_path.glob("checkpoint-*.ckpt"))
    assert written
    for path in written:
        arrays, meta = read_checkpoint(path)
        assert "state__mirror_v" not in arrays
        assert "allocations" not in meta["state_meta"]
        divided = np.flatnonzero(arrays["state__div"])
        assert divided.size == meta["state_meta"]["splits"] > 0
        # one (vertex, raw cluster) pair per split, both in range
        arrays["state__mirror_v"] = divided.astype(np.int64)
        arrays["state__mirror_c"] = arrays["state__clu"][divided].astype(np.int64)
        meta["state_meta"]["allocations"] = int((arrays["state__clu"] >= 0).sum())
        meta["config"]["reliability"]["ingest_mode"] = "lenient"
        write_checkpoint(path, arrays, meta)
    resumed = PartitionService.resume(str(tmp_path))
    assert resumed.batch_index == stop_after
    for u, v in batches[stop_after:]:
        resumed.ingest_pair(u, v)
    resumed.close()
    assert np.array_equal(resumed.edge_partition, whole.edge_partition)
    assert np.array_equal(resumed.vertex_partition, whole.vertex_partition)
    assert_same_array(resumed.loads, whole.loads, "loads")
    assert_same_array(resumed._replicas, whole._replicas, "replica summaries")
    (got, got_meta), (want, want_meta) = resumed._state.state_dict(), whole._state.state_dict()
    assert got_meta == want_meta and sorted(got) == sorted(want)
    for key, array in want.items():
        assert_same_array(got[key], array, key)


# --------------------------------------------------------------------- #
# phase_seconds
# --------------------------------------------------------------------- #

PHASES = (
    "endpoints", "pass1", "snapshot", "cluster_graph", "warm_start",
    "game", "plan", "pass3",
)


def test_phase_seconds_account_for_the_batch():
    stream, batches = crawl_batches()
    service = PartitionService(
        stream.num_vertices, ClugpConfig(num_partitions=8), migration_cap=16,
        expected_edges=stream.num_edges, quality_every=3,
    )
    for u, v in batches:
        service.ingest_pair(u, v)
    for stats in service.history:
        phases = stats.phase_seconds
        sampled = stats.replication_factor is not None
        assert set(phases) == set(PHASES) | ({"quality"} if sampled else set())
        assert all(spent >= 0.0 for spent in phases.values())
        maintenance = sum(phases[name] for name in PHASES)
        assert abs(maintenance - stats.seconds) <= 0.10 * stats.seconds
    summed = service.summary()["phase_seconds"]
    assert summed.keys() == set(PHASES) | {"quality"}
    for name, total in summed.items():
        assert total == pytest.approx(
            sum(s.phase_seconds.get(name, 0.0) for s in service.history)
        )


def test_phase_seconds_roundtrip_and_old_checkpoints():
    stats = BatchStats(
        batch=0, num_edges=1, total_edges=1, seconds=0.5, clusters=1,
        frontier_clusters=1, game_rounds=1, game_moves=0, candidate_moves=0,
        applied_moves=0, deferred_moves=0, reassigned_edges=0, churn_edges=0,
        phase_seconds={"pass1": 0.2, "game": 0.3},
    )
    row = stats.to_dict()
    assert row["phase_seconds"] == {"pass1": 0.2, "game": 0.3}
    assert BatchStats.from_dict(row) == stats
    del row["phase_seconds"]  # a checkpoint written before the field existed
    old = BatchStats.from_dict(row)
    assert old.phase_seconds == {} and old.extras == {}


# --------------------------------------------------------------------- #
# the pass-1 state round trip
# --------------------------------------------------------------------- #


def test_snapshot_and_state_roundtrip_agree_across_impls():
    stream, batches = crawl_batches()
    half = len(batches) // 2
    results = {}
    for impl in ("auto", "python"):
        with kernel_backend(impl):
            state = ClusteringState(stream.num_vertices, 300, enable_splitting=True)
        for u, v in batches[:half]:
            state.ingest_pair(u, v)
        mid = state.snapshot()
        mid_tables = [a.copy() for a in (mid.cluster_of, mid.degree, mid.divided)]
        arrays, meta = state.state_dict()
        assert sorted(arrays) == ["clu", "deg", "div", "vol"]
        assert state.splits == int(arrays["div"].sum()) > 0
        with kernel_backend(impl):
            restored = ClusteringState.from_state(
                {key: a.copy() for key, a in arrays.items()}, meta
            )
        for u, v in batches[half:]:
            state.ingest_pair(u, v)
            restored.ingest_pair(u, v)
        # the outstanding snapshot did not move under later ingestion
        for a, b in zip(mid_tables, (mid.cluster_of, mid.degree, mid.divided)):
            assert np.array_equal(a, b)
        end, end_restored = state.snapshot(), restored.snapshot()
        assert_clustering_equal(end, end_restored)
        for (ka, a), (kb, b) in zip(
            sorted(state.state_dict()[0].items()), sorted(restored.state_dict()[0].items())
        ):
            assert ka == kb and np.array_equal(a, b), ka
        final = state.finalize()
        assert_clustering_equal(final, end)
        results[impl] = (mid, final, state.state_dict()[0])
    mid_ref, final_ref, arrays_ref = results["python"]
    mid, final, arrays = results["auto"]
    assert_clustering_equal(mid, mid_ref)
    assert_clustering_equal(final, final_ref)
    for key, want in arrays_ref.items():
        assert_same_array(arrays[key], want, key)


@pytest.mark.parametrize("tier", list(TIERS), indirect=True)
def test_savepoint_rollback_is_exact(tier):
    stream, batches = crawl_batches()
    state = ClusteringState(stream.num_vertices, 300, enable_splitting=True)
    for u, v in batches[:3]:
        state.ingest_pair(u, v)
    arrays, meta = state.state_dict()
    arrays = {key: a.copy() for key, a in arrays.items()}
    u, v = batches[3]
    saved = state.savepoint(np.unique(np.concatenate([u, v])))
    state.ingest_pair(u, v)
    assert state.state_dict()[1] != meta
    state.rollback(saved)
    arrays_after, meta_after = state.state_dict()
    assert meta_after == meta
    for key, want in arrays.items():
        assert_same_array(arrays_after[key], want, key)
    # and ingestion carries on as if the batch was never seen
    twin = ClusteringState.from_state(arrays, meta)
    for u, v in batches[3:6]:
        state.ingest_pair(u, v)
        twin.ingest_pair(u, v)
    assert np.array_equal(state.snapshot().cluster_of, twin.snapshot().cluster_of)
