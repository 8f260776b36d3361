"""Tests for the incremental PartitionService (DESIGN.md §7).

The §7 invariants, each pinned here:

* I1 (anchor): a single-batch service is bit-identical to
  ``ClugpPartitioner.partition``;
* I2 (warm pass 1): the clustering snapshot after any batch split is
  bit-identical to the batch pipeline's pass 1 on the concatenated
  prefix (raw-id stability included);
* I3 (equilibrium): after every batch, the persisted cluster assignment
  is a full Nash equilibrium of that batch's cluster graph;
* I4 (migration cap): no batch applies more moves than the cap, and the
  moves chosen are the highest-degree candidates;
* I5 (hard balance): the served loads respect ``ceil(tau * |E| / k)``
  after every batch;
* I6 (bounded churn + drift): churned edges are a subset of the
  reassigned edges, and multi-batch RF stays within a loose documented
  bound of the from-scratch oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClugpConfig, GameConfig
from repro.core.clustering import ClusteringState, streaming_clustering
from repro.core.game import ClusterPartitioningGame
from repro.core.partitioner import ClugpPartitioner
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.service import BatchStats, MigrationPlan, PartitionService, plan_migrations


def crawl_stream(pages=600, seed=3, order="bfs"):
    graph = web_crawl_graph(pages, avg_out_degree=6, host_size=20, seed=seed)
    return EdgeStream.from_graph(graph, order=order, seed=seed)


def feed(service, stream, batch_size):
    for src, dst in stream.batches(batch_size):
        service.ingest_pair(src, dst)
    return service


# --------------------------------------------------------------------- #
# I1: single-batch bit-identity
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("k", [2, 8])
def test_single_batch_identical_to_batch_pipeline(k):
    stream = crawl_stream()
    cfg = ClugpConfig(num_partitions=k, game=GameConfig(seed=1))
    reference = ClugpPartitioner(k, seed=1, config=cfg).partition(stream)
    service = PartitionService(stream.num_vertices, cfg)
    stats = service.ingest_pair(stream.src, stream.dst)
    assert np.array_equal(service.edge_partition, reference.edge_partition)
    assert stats.candidate_moves == 0  # first batch never migrates
    assert stats.frontier_clusters == stats.clusters


def test_single_batch_quality_stats_match_assignment():
    stream = crawl_stream(300)
    service = PartitionService(stream.num_vertices, ClugpConfig(num_partitions=4))
    stats = service.ingest_pair(stream.src, stream.dst)
    a = service.assignment()
    assert stats.replication_factor == pytest.approx(a.replication_factor())
    assert stats.relative_balance == pytest.approx(a.relative_balance())


# --------------------------------------------------------------------- #
# I2: warm pass-1 state equivalence
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("chunk", [1, 7, 1024])
def test_snapshot_equals_prefix_reference(chunk):
    stream = crawl_stream(200)
    vmax = max(1, stream.num_edges // 4)
    state = ClusteringState(stream.num_vertices, vmax, enable_splitting=True)
    consumed = 0
    for src, dst in stream.batches(chunk):
        state.ingest_pair(src, dst)
        consumed += src.size
        if consumed in (chunk, 5 * chunk, stream.num_edges):
            prefix = EdgeStream(
                stream.src[:consumed], stream.dst[:consumed], stream.num_vertices
            )
            ref = streaming_clustering(prefix, vmax, enable_splitting=True)
            snap = state.snapshot()
            assert np.array_equal(snap.cluster_of, ref.cluster_of)
            assert np.array_equal(snap.volume, ref.volume)
            assert np.array_equal(snap.degree, ref.degree)
            assert np.array_equal(snap.divided, ref.divided)
            assert snap.num_clusters == ref.num_clusters
    final = state.finalize()
    ref = streaming_clustering(stream, vmax, enable_splitting=True)
    assert np.array_equal(final.cluster_of, ref.cluster_of)


def test_snapshot_raw_ids_stable_across_batches():
    stream = crawl_stream(200)
    vmax = max(1, stream.num_edges // 4)
    state = ClusteringState(stream.num_vertices, vmax, enable_splitting=True)
    half = stream.num_edges // 2
    state.ingest_pair(stream.src[:half], stream.dst[:half])
    snap1 = state.snapshot()
    state.ingest_pair(stream.src[half:], stream.dst[half:])
    snap2 = state.snapshot()
    # every vertex still clustered keeps the raw id of its cluster unless
    # it moved: specifically, a compact cluster of snap1 that survives in
    # snap2 appears under the same raw id
    raw1 = set(snap1.raw_ids.tolist())
    raw2 = set(snap2.raw_ids.tolist())
    survivors = raw1 & raw2
    assert survivors, "no cluster survived — fixture too small"
    # raw->compact maps are consistent: same raw id on both sides refers
    # to a cluster (possibly with changed membership), never renumbered
    assert max(raw1) < state.num_raw
    assert max(raw2) < state.num_raw


def test_snapshot_does_not_end_ingestion():
    stream = crawl_stream(150)
    vmax = max(1, stream.num_edges // 4)
    with_snap = ClusteringState(stream.num_vertices, vmax, enable_splitting=True)
    without = ClusteringState(stream.num_vertices, vmax, enable_splitting=True)
    half = stream.num_edges // 2
    for st_ in (with_snap, without):
        st_.ingest_pair(stream.src[:half], stream.dst[:half])
    with_snap.snapshot()  # must not perturb further ingestion
    for st_ in (with_snap, without):
        st_.ingest_pair(stream.src[half:], stream.dst[half:])
    a, b = with_snap.finalize(), without.finalize()
    assert np.array_equal(a.cluster_of, b.cluster_of)
    assert np.array_equal(a.volume, b.volume)


def test_snapshot_after_finalize_raises():
    state = ClusteringState(4, 2, enable_splitting=True)
    state.ingest_pair(np.array([0, 1]), np.array([1, 2]))
    state.finalize()
    with pytest.raises(RuntimeError):
        state.snapshot()


# --------------------------------------------------------------------- #
# I3: every batch ends at a full Nash equilibrium; the served map always
# comes from a valid assignment
# --------------------------------------------------------------------- #


def test_every_batch_persists_a_full_equilibrium():
    """Small batches at k = 32 leave most clusters untouched by a batch:
    the feed where a game restricted to the touched clusters and their
    neighbours stops at an assignment some other cluster can improve."""
    stream = crawl_stream()
    k = 32
    cfg = ClugpConfig(num_partitions=k)
    service = PartitionService(stream.num_vertices, cfg, expected_edges=stream.num_edges)
    for src, dst in stream.batches(max(1, stream.num_edges // 100)):
        service.ingest_pair(src, dst)
        raw_ids = service._state.live().raw_ids
        game = ClusterPartitioningGame(
            service._delta.freeze(raw_ids), k, cfg.game,
            initial_assignment=service._raw_assign[raw_ids],
        )
        assert game.is_nash_equilibrium(), f"batch {service.batch_index - 1}"


def test_served_map_consistent_with_edge_partition():
    stream = crawl_stream(400)
    k = 4
    service = feed(
        PartitionService(
            stream.num_vertices,
            ClugpConfig(num_partitions=k),
            expected_edges=stream.num_edges,
        ),
        stream,
        max(1, stream.num_edges // 9),
    )
    vp = service.vertex_partition
    seen = vp >= 0
    # every streamed endpoint is served from a real partition
    assert seen[stream.src].all() and seen[stream.dst].all()
    assert vp[seen].max() < k
    ep = service.edge_partition
    assert ep.shape == (stream.num_edges,)
    assert ep.min() >= 0 and ep.max() < k
    assert np.array_equal(
        np.bincount(ep, minlength=k), service.loads
    )


# --------------------------------------------------------------------- #
# I4: migration cap
# --------------------------------------------------------------------- #


def test_plan_migrations_cap_and_ordering():
    served = np.array([0, 0, 0, 1, -1, 2])
    ideal = np.array([1, 0, 1, 0, 2, -1])
    degree = np.array([5, 9, 7, 5, 1, 3])
    plan = plan_migrations(served, ideal, degree, cap=2)
    # candidates: vertices 0 (deg 5), 2 (deg 7), 3 (deg 5); cap keeps the
    # two highest-degree, ties by ascending id -> {2, 0}, reported sorted
    assert plan.candidates == 3
    assert plan.applied == 2
    assert plan.deferred == 1
    assert plan.vertices.tolist() == [0, 2]
    assert plan.sources.tolist() == [0, 0]
    assert plan.targets.tolist() == [1, 1]
    uncapped = plan_migrations(served, ideal, degree, cap=None)
    assert uncapped.vertices.tolist() == [0, 2, 3]
    assert plan_migrations(served, ideal, degree, cap=0).applied == 0
    with pytest.raises(ValueError):
        plan_migrations(served, ideal, degree, cap=-1)


@pytest.mark.parametrize("cap", [0, 3, 50])
def test_service_respects_migration_cap(cap):
    stream = crawl_stream(400)
    service = feed(
        PartitionService(
            stream.num_vertices,
            ClugpConfig(num_partitions=4),
            migration_cap=cap,
            expected_edges=stream.num_edges,
        ),
        stream,
        max(1, stream.num_edges // 7),
    )
    assert all(s.applied_moves <= cap for s in service.history)
    assert all(
        s.deferred_moves == s.candidate_moves - s.applied_moves
        for s in service.history
    )
    if cap == 0:
        # with no moves allowed, nothing is ever reassigned or churned
        assert all(s.reassigned_edges == 0 for s in service.history)
        assert all(s.churn_edges == 0 for s in service.history)


# --------------------------------------------------------------------- #
# I5: hard balance cap
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("batches", [3, 11])
def test_service_holds_hard_balance_cap(batches):
    stream = crawl_stream(500)
    k = 4
    cfg = ClugpConfig(num_partitions=k)
    service = PartitionService(
        stream.num_vertices, cfg, expected_edges=stream.num_edges
    )
    total = 0
    for src, dst in stream.batches(max(1, stream.num_edges // batches)):
        service.ingest_pair(src, dst)
        total += src.size
        cap = int(np.ceil(cfg.imbalance_factor * total / k))
        assert int(service.loads.max()) <= cap


# --------------------------------------------------------------------- #
# I6: churn bounded by reassignment; drift bounded vs the oracle
# --------------------------------------------------------------------- #


def test_churn_subset_of_reassigned():
    stream = crawl_stream(400)
    service = feed(
        PartitionService(
            stream.num_vertices,
            ClugpConfig(num_partitions=4),
            expected_edges=stream.num_edges,
        ),
        stream,
        max(1, stream.num_edges // 9),
    )
    assert all(s.churn_edges <= s.reassigned_edges for s in service.history)


@settings(max_examples=8, deadline=None)
@given(
    batch_size=st.sampled_from([1, 7, 1024]),
    seed=st.integers(min_value=0, max_value=3),
)
def test_multi_batch_drift_and_caps_property(batch_size, seed):
    """Random batch splits: migration counts respect the cap, balance
    holds, and RF drift vs the from-scratch oracle stays under the loose
    documented bound (DESIGN.md §7; random-graph fixture, hence looser
    than the bench ceiling)."""
    stream = crawl_stream(150, seed=seed)
    k = 4
    cap = 16
    cfg = ClugpConfig(num_partitions=k, game=GameConfig(seed=seed))
    service = feed(
        PartitionService(
            stream.num_vertices,
            cfg,
            migration_cap=cap,
            expected_edges=stream.num_edges,
        ),
        stream,
        batch_size,
    )
    assert all(s.applied_moves <= cap for s in service.history)
    hard_cap = int(np.ceil(cfg.imbalance_factor * stream.num_edges / k))
    assert int(service.loads.max()) <= hard_cap
    rf = service.assignment().replication_factor()
    rf_oracle = service.oracle_assignment().replication_factor()
    assert rf <= rf_oracle * 1.75 + 0.25


def test_empty_batches_are_noops():
    stream = crawl_stream(150)
    service = PartitionService(
        stream.num_vertices, ClugpConfig(num_partitions=4),
        expected_edges=stream.num_edges,
    )
    empty = np.empty(0, dtype=np.int64)
    s0 = service.ingest_pair(empty, empty)
    assert isinstance(s0, BatchStats) and s0.num_edges == 0
    service.ingest_pair(stream.src, stream.dst)
    before = service.edge_partition
    s2 = service.ingest_pair(empty, empty)
    assert s2.num_edges == 0 and s2.applied_moves == 0
    assert np.array_equal(service.edge_partition, before)


def test_service_input_validation():
    service = PartitionService(10, ClugpConfig(num_partitions=2))
    with pytest.raises(ValueError):
        service.ingest(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        service.ingest_pair(np.array([0, 11]), np.array([1, 2]))
    with pytest.raises(ValueError):
        PartitionService(10, migration_cap=-2)
    with pytest.raises(ValueError):
        PartitionService(10, quality_every=0)
    with pytest.raises(RuntimeError):
        service.oracle_assignment()  # nothing ingested yet


@pytest.mark.parametrize("bad", [-5, 0, 2.5, "500"])
def test_expected_edges_must_be_a_positive_int(bad):
    """``V_max`` is resolved against ``expected_edges``: a non-positive
    count must not lock it to 1 or fall back to the first batch's size."""
    with pytest.raises(ValueError, match="expected_edges"):
        PartitionService(10, expected_edges=bad)
    assert PartitionService(10, expected_edges=500).expected_edges == 500


def test_ingest_matrix_matches_ingest_pair():
    stream = crawl_stream(150)
    cfg = ClugpConfig(num_partitions=4)
    a = PartitionService(stream.num_vertices, cfg)
    b = PartitionService(stream.num_vertices, cfg)
    a.ingest(np.column_stack([stream.src, stream.dst]))
    b.ingest_pair(stream.src, stream.dst)
    assert np.array_equal(a.edge_partition, b.edge_partition)


def test_summary_and_plan_exposure():
    stream = crawl_stream(300)
    service = feed(
        PartitionService(
            stream.num_vertices,
            ClugpConfig(num_partitions=4),
            migration_cap=8,
            expected_edges=stream.num_edges,
        ),
        stream,
        max(1, stream.num_edges // 5),
    )
    summary = service.summary()
    assert summary["num_edges"] == stream.num_edges
    assert summary["batches"] == len(service.history)
    assert summary["applied_moves"] == sum(s.applied_moves for s in service.history)
    assert isinstance(service.last_plan, MigrationPlan)
    row = service.history[-1].to_dict()
    assert row["batch"] == len(service.history) - 1
    assert "edges_per_second" in row and "rf_drift" in row
