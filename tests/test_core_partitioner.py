"""End-to-end tests for the CLUGP pipeline and its ablations."""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.config import ClugpConfig
from repro.core.clustering import ClusteringState
from repro.core.transform import TransformState
from repro.core.partitioner import (
    ClugpGreedyPartitioner,
    ClugpPartitioner,
    greedy_cluster_assignment,
)
from repro.core.cluster_graph import ClusterGraph
from repro.graph.stream import EdgeStream
from repro.partitioners import HashingPartitioner


@pytest.fixture(scope="module")
def stream(crawl_graph):
    return EdgeStream.from_graph(crawl_graph, order="natural")


def _resize_interned_strings() -> None:
    """Have CPython resize its interned-string table now.

    The table is a dict (about 1.9 MB past ~44k strings).  An interned
    string that dies leaves a used slot behind, so the dict resizes after
    a fixed number of insertions; when that lands inside a traced window
    it adds the whole block to the peak, at a moment set by everything
    the process interned before.  Interning fresh strings that die at once
    reaches the resize (the one ``sys.intern`` call whose traced peak
    jumps), which leaves more free slots than the table holds strings.
    Where interned strings are immortal (CPython 3.12) the table grows
    only with new strings, and this returns at once.
    """
    if sys.getrefcount(sys.intern(f"{id(_resize_interned_strings)}_pad")) > 1 << 30:
        return
    tracemalloc.start()
    try:
        for i in range(1 << 20):
            pad = f"{i}_interned_pad"
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sys.intern(pad)
            if tracemalloc.get_traced_memory()[1] - before > 1 << 16:
                return
    finally:
        tracemalloc.stop()


def _traced_peak(run) -> int:
    run()  # warm: kernel load, lazy imports, caches
    _resize_interned_strings()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class ClugpSplitRule(ClugpPartitioner):
    """CLUGP with the paper's split rule (Algorithm 2), built as ``cls(k)``."""

    def __init__(self, num_partitions, **kwargs):
        super().__init__(
            num_partitions, config=ClugpConfig(enable_splitting=True), **kwargs
        )


@pytest.mark.parametrize("chunk_size", [100, None])
@pytest.mark.parametrize(
    "cls", [ClugpPartitioner, ClugpSplitRule, ClugpGreedyPartitioner]
)
class TestOnePathAtEveryChunkSize:
    """What the retired buffering path (``partition_chunked``) got wrong:
    it recorded one ``total`` stage, ran passes 2-3 over a re-concatenated
    copy of the stream, and ignored the chunk size after pass 1."""

    def test_every_pass_is_a_recorded_stage(self, cls, chunk_size, stream):
        times = cls(8).partition(stream, chunk_size=chunk_size).stage_times
        assert set(times.stages) == {"clustering", "game", "transform"}

    def test_no_pass_sees_a_longer_chunk(self, cls, chunk_size, stream, monkeypatch):
        seen = {ClusteringState: [], TransformState: []}
        for state, lengths in seen.items():
            def spy(self, u, v, *args, _ingest=state.ingest_pair, _lengths=lengths, **kwargs):
                _lengths.append(len(u))
                return _ingest(self, u, v, *args, **kwargs)

            monkeypatch.setattr(state, "ingest_pair", spy)
        cls(8).partition(stream, chunk_size=chunk_size)
        for lengths in seen.values():
            assert sum(lengths) == stream.num_edges
            assert max(lengths) <= (chunk_size or cls.default_chunk_size)

    def test_no_edge_sized_copy_of_the_endpoints(self, cls, chunk_size, stream):
        whole = _traced_peak(lambda: cls(8).partition(stream))
        chunked = _traced_peak(lambda: cls(8).partition(stream, chunk_size=chunk_size))
        assert chunked <= 1.05 * whole


class TestPipeline:
    def test_valid_assignment(self, stream):
        assignment = ClugpPartitioner(8).partition(stream)
        assert assignment.edge_partition.shape == (stream.num_edges,)
        assert assignment.edge_partition.max() < 8

    def test_stage_times_recorded(self, stream):
        p = ClugpPartitioner(8)
        assignment = p.partition(stream)
        for stage in ("clustering", "game", "transform"):
            assert stage in assignment.stage_times

    def test_intermediates_exposed(self, stream):
        p = ClugpPartitioner(8)
        p.partition(stream)
        assert p.last_clustering is not None
        assert p.last_cluster_graph is not None
        assert p.last_game_result is not None
        assert p.last_transform_stats is not None
        assert p.last_transform_stats.total() == stream.num_edges

    def test_tau_cap_respected(self, stream):
        p = ClugpPartitioner(8, imbalance_factor=1.02)
        assignment = p.partition(stream)
        cap = p.last_transform_stats.load_cap
        assert assignment.partition_sizes().max() <= cap

    def test_deterministic(self, stream):
        a = ClugpPartitioner(8, seed=5).partition(stream).edge_partition
        b = ClugpPartitioner(8, seed=5).partition(stream).edge_partition
        assert np.array_equal(a, b)

    def test_beats_hashing_quality(self, stream):
        rf_clugp = ClugpPartitioner(16).partition(stream).replication_factor()
        rf_hash = HashingPartitioner(16).partition(stream).replication_factor()
        assert rf_clugp < rf_hash

    def test_prefers_natural_order(self):
        assert ClugpPartitioner.preferred_order == "natural"

    def test_single_partition(self, stream):
        assignment = ClugpPartitioner(1).partition(stream)
        assert assignment.replication_factor() == 1.0

    def test_explicit_vmax(self, stream):
        p = ClugpPartitioner(8, max_cluster_volume=50)
        p.partition(stream)
        assert p.last_clustering.max_volume == 50

    def test_config_object_respected(self, stream):
        cfg = ClugpConfig(num_partitions=4, imbalance_factor=1.3)
        p = ClugpPartitioner(4, config=cfg)
        assert p.config.imbalance_factor == 1.3

    def test_config_k_mismatch_resolved(self, stream):
        cfg = ClugpConfig(num_partitions=2)
        p = ClugpPartitioner(8, config=cfg)
        assert p.config.num_partitions == 8

    @pytest.mark.parametrize("k", [8, 130])
    def test_state_memory_accounts_vertex_tables(self, stream, k):
        p = ClugpPartitioner(k)
        p.partition(stream)
        # two vertex tables, three cluster tables and pass 3's replica
        # summary, one word a vertex at any k
        n, m = stream.num_vertices, p.last_clustering.num_clusters
        assert p.state_memory_bytes(stream) == 3 * n * 8 + 3 * m * 8


class TestAblations:
    def test_the_default_never_splits(self, stream):
        p = ClugpPartitioner(8)
        p.partition(stream)
        assert p.last_clustering.splits == 0
        split = ClugpSplitRule(8)
        split.partition(stream)
        assert split.last_clustering.splits > 0

    def test_config_switches_are_honoured(self):
        # both switches come from the config, in either combination
        cfg = ClugpConfig(num_partitions=8, enable_splitting=True, use_game=False)
        p = ClugpPartitioner(8, config=cfg)
        assert (p.config.enable_splitting, p.config.use_game) == (True, False)
        cfg = cfg.with_(enable_splitting=False, use_game=True)
        p = ClugpPartitioner(8, config=cfg)
        assert (p.config.enable_splitting, p.config.use_game) == (False, True)
        # CLUGP-G pins the greedy placement whatever the config says
        g = ClugpGreedyPartitioner(8, config=cfg.with_(enable_splitting=True))
        assert (g.config.enable_splitting, g.config.use_game) == (True, False)

    def test_greedy_variant_skips_game(self, stream):
        p = ClugpGreedyPartitioner(8)
        p.partition(stream)
        assert p.last_game_result.rounds == 0
        assert p.name == "clugp-g"

    def test_game_beats_greedy_placement(self, stream):
        # Figure 9: the game-based placement has lower RF than CLUGP-G
        rf_game = ClugpPartitioner(16, seed=1).partition(stream).replication_factor()
        rf_greedy = (
            ClugpGreedyPartitioner(16, seed=1).partition(stream).replication_factor()
        )
        assert rf_game <= rf_greedy

    def test_greedy_cluster_assignment_lpt(self):
        cg = ClusterGraph.from_dicts(
            4,
            np.array([10, 1, 1, 8]),
            [{} for _ in range(4)],
            [{} for _ in range(4)],
        )
        assignment = greedy_cluster_assignment(cg, 2)
        loads = np.bincount(assignment, weights=cg.internal, minlength=2)
        assert loads.tolist() == [10.0, 10.0]
